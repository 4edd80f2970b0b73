package node

import (
	"fmt"
	"testing"
)

func TestStoreShardSpread(t *testing.T) {
	// Sanity: keys spread over more than one shard.
	s := NewStore()
	for i := 0; i < 1000; i++ {
		s.Set(fmt.Sprintf("key-%d", i), nil)
	}
	used := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		if len(s.shards[i].m) > 0 {
			used++
		}
		s.shards[i].mu.RUnlock()
	}
	if used < storeShards/2 {
		t.Errorf("only %d/%d shards used", used, storeShards)
	}
}
