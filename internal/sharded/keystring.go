package sharded

import (
	"fmt"
	"strconv"
)

// keyString produces a canonical string form of a comparable key for
// hashing. Common key types avoid reflection; everything else falls
// back to fmt.
func keyString[K comparable](k K) string {
	switch v := any(k).(type) {
	case string:
		return v
	case int:
		return strconv.FormatInt(int64(v), 10)
	case int32:
		return strconv.FormatInt(int64(v), 10)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case uint32:
		return strconv.FormatUint(uint64(v), 10)
	default:
		return fmt.Sprint(k)
	}
}

// hashKey hashes an arbitrary comparable key into the uint64 shard
// space using FNV-1a over its printed form. Deterministic across runs.
func hashKey[K comparable](k K) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	s := keyString(k)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
