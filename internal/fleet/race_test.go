//go:build race

package fleet

// TestShardServeAllocs's bounds under the race detector, which drops a
// random share of what sync.Pool is handed back and so moves a run's
// bytes and allocations from try to try. It measured 14.5 to 18.5
// allocations a server over eight tries, and 1.8 to 2.1 bytes a store
// and an object over the object table.
const (
	perServerAllocs  = 24
	storeObjectSlack = 4
)
