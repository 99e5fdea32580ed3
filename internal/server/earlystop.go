package server

// ConcludedHeader marks responses for tests the sequential engine has
// already decided: an upload for a concluded test is acknowledged with
// 200 (not 201) plus this header set to "1", and nothing is stored — the
// crowd's remaining budget belongs to undecided tests.
const ConcludedHeader = "X-Kscope-Concluded"

// EarlyStopConfig enables adaptive sequential early stopping on the
// serving path. Alpha is the per-test family-wise false-stop rate (see
// earlystop.Config).
type EarlyStopConfig struct {
	Alpha float64
}

// WithEarlyStop folds every stored session into a per-test sequential
// engine (part of the test's fold state, see fold.go) and flips the test to
// concluded the moment a winner is decided: later uploads get 200 +
// X-Kscope-Concluded instead of being stored, and /results carries the
// decision metadata. Off by default — fixed-n campaigns are unaffected
// unless the option is given.
func WithEarlyStop(cfg EarlyStopConfig) Option {
	return func(s *Server) { s.folds.early = &cfg }
}
