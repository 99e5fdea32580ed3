package server

// Fixture helpers for bench_repl_test.go, which is in package server_test:
// it builds its nodes through internal/deploy, and deploy imports this
// package.
var (
	PrepareOn           = prepareOn
	BenchSessionPayload = benchSessionPayload
)
