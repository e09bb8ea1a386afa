#!/bin/sh
# verify.sh — the repository's full correctness gate, run locally and in CI.
#
#   1. go build      — everything compiles
#   2. go vet        — the toolchain's own static checks
#   3. vqlint        — the repo-specific analyzers: syntactic rules (float
#                      equality, lock copying, goroutine shutdown, dropped
#                      errors) plus the path-sensitive CFG/dataflow rules
#                      (lockbalance, poolrelease, errflow, ratioguard,
#                      goleak, chandiscipline, wgbalance, and the
#                      determinism/lifetime trio detorder, poollifetime,
#                      wallclock), made interprocedural by per-function
#                      summaries; non-zero exit on any finding
#   4. go test -race — the full suite under the race detector
#   5. bench/        — the benchmark is a module of its own, outside ./...
set -eux

go build ./...
go vet ./...
go run ./cmd/vqlint ./...
go test -race ./...
(cd bench && go vet . && go test .)
