// The benchmark is a module of its own so that the product's tier-1
// `go build ./... && go test ./...` never compiles or runs it. Its module
// path sits under dyntc/ so it may import the dyntc/internal/* layers it
// measures; the replace points at the checkout it was run from.
module dyntc/benchmark

go 1.24

require dyntc v0.0.0

replace dyntc => ../
