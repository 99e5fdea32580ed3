package replica

import (
	"net/http"
	"strings"
	"sync"

	"kaleidoscope/internal/store"
)

// Node is the standby process's HTTP face: before promotion it serves only
// the replication surface (application traffic gets 503 + Retry-After, so
// clients probing the standby back off instead of erroring), and at
// promotion it atomically swaps in the application handler built over the
// promoted store — the moment a load balancer or failing-over client
// reaches it, it is the primary.
type Node struct {
	follower *Follower

	mu  sync.RWMutex
	app http.Handler // nil until promoted
}

// NewNode wraps a follower for serving.
func NewNode(f *Follower) *Node { return &Node{follower: f} }

// Promoted reports whether the application handler is live.
func (n *Node) Promoted() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.app != nil
}

// ServeHTTP routes /repl/* to the follower and everything else to the
// application handler once promoted.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/repl/") {
		n.follower.ServeHTTP(w, r)
		return
	}
	n.mu.RLock()
	app := n.app
	n.mu.RUnlock()
	if app == nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "kscope: standby (not promoted)", http.StatusServiceUnavailable)
		return
	}
	app.ServeHTTP(w, r)
}

// Promote fails the node over: the follower durably bumps its epoch and
// opens the replicated store, build constructs the application handler
// over it (receiving the new epoch so the server can advertise it), and
// the handler goes live for the next request. The opened store is returned
// for the caller to own (and Close).
func (n *Node) Promote(build func(db *store.DB, epoch uint64) (http.Handler, error), opts ...store.Option) (*store.DB, uint64, error) {
	db, epoch, err := n.follower.Promote(opts...)
	if err != nil {
		return nil, epoch, err
	}
	h, err := build(db, epoch)
	if err != nil {
		db.Close()
		return nil, epoch, err
	}
	n.mu.Lock()
	n.app = h
	n.mu.Unlock()
	return db, epoch, nil
}
