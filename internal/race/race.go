//go:build race

// Package race reports whether the binary was built with the race detector,
// whose instrumentation allocates: allocation-count guards skip under it.
package race

// Enabled is true in a -race build.
const Enabled = true
