package main

import (
	"fmt"
	"net/url"
	"strings"

	"kaleidoscope/internal/shard"
)

// parseShards parses the -shards flag value, which turns kscope-server
// into the stateless consistent-hash routing tier of a sharded deployment:
//
//	router:  kscope-server -shards "http://s0:8780|http://s0b:8781,http://s1:8780|http://s1b:8781"
//	shard 0: kscope-server -store DIR0 -replicate-to http://s0b:8781
//
// Shards are comma-separated; each is its primary's base URL, optionally
// followed by "|" and its warm standby's. Shard identity on the ring is
// the primary URL, so the same flag value always routes the same keys —
// keep the list stable across router restarts. The router owns no data: it
// proxies each request to the shard owning its key (test id for content,
// test id + worker id for sessions), fails over to a shard's standby when
// the primary stops answering, and serves /results as a scatter/gather
// merge. See internal/shard.
func parseShards(v string) ([]shard.Spec, error) {
	var specs []shard.Spec
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-shards: empty shard entry in %q", v)
		}
		primary, standby, _ := strings.Cut(part, "|")
		for _, u := range []string{primary, standby} {
			if u == "" {
				continue
			}
			parsed, err := url.Parse(u)
			if err != nil || parsed.Scheme == "" || parsed.Host == "" {
				return nil, fmt.Errorf("-shards: %q is not an absolute URL (want e.g. http://host:port)", u)
			}
		}
		if primary == "" {
			return nil, fmt.Errorf("-shards: shard entry %q has no primary URL", part)
		}
		specs = append(specs, shard.Spec{Name: primary, Primary: primary, Standby: standby})
	}
	return specs, nil
}
