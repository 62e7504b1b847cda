//go:build !race

package fleet

// TestShardServeAllocs's bounds without the race detector. A server
// measured 23 allocations: 14 to build it — its Server, call offsets, key
// buffer, three read and two write buffers, the queue's server and batch,
// the stage, its name and its Proc — and 9 for the one store call it has
// in flight, a fabric call record and an invocation the pools had not
// held before. A store measured 2 bytes an object over its object table,
// the table's growth under the writes.
const (
	perServerAllocs  = 24
	storeObjectSlack = 4
)
