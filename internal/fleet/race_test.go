//go:build race

package fleet

// TestShardServeAllocs's bounds under the race detector, which drops a
// random share of what sync.Pool is handed back and so moves a run's
// bytes from try to try. It measured the same 23 allocations a server,
// and 2.3 bytes a store and an object over the object table.
const (
	perServerAllocs  = 24
	storeObjectSlack = 4
)
