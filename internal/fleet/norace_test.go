//go:build !race

package fleet

// TestShardServeAllocs's bounds without the race detector. A server
// measured 16.5 allocations: 13 to build it — its Server, key buffer,
// three read and two write buffers, the queue's server and batch, the
// stage, its name and its Proc — and the rest for the one store call it
// has in flight, a fabric call record (the Call alone, and its share of
// the fabric's table of records) and an invocation the pools had not
// held before. A store measured 2 bytes an object over its object
// table, the table's growth under the writes, and the system's first
// store no more: its preload displaces nothing, so it keeps no undo.
const (
	perServerAllocs  = 18
	storeObjectSlack = 4
)
