//go:build !race

package scenario

// poolNoise is 0 without the race detector: fmt's sync.Pool keeps every
// printer, so a flight dump's bytes are the same on every try.
const poolNoise = 0
