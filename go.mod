module repro

// Stays at 1.22 although internal/sim needs a Go >= 1.23 toolchain (iter.Pull): _bench/go.mod says 1.22 and replaces this module in, and would need editing to follow.
go 1.22
