//go:build race

package scenario

// poolNoise is how many more bytes a flight dump may allocate on one try
// than on another with the same output. The race detector drops a random
// quarter of what is put back into a sync.Pool, fmt's printers included,
// so a dump that renders a thousand lines through fmt allocates a few
// KiB more or less from try to try.
const poolNoise = 64 << 10
