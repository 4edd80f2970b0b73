package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("absent"); ok {
		t.Error("Get of absent key succeeded")
	}
	s.Set("k1", []byte("v1"))
	v, ok := s.Get("k1")
	if !ok || string(v) != "v1" {
		t.Errorf("Get(k1) = %q, %v", v, ok)
	}
	s.Set("k1", []byte("v2"))
	if v, _ := s.Get("k1"); string(v) != "v2" {
		t.Error("overwrite failed")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Delete("k1") {
		t.Error("Delete returned false")
	}
	if s.Delete("k1") {
		t.Error("double Delete returned true")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
}

func TestStoreCopiesValues(t *testing.T) {
	s := NewStore()
	val := []byte("original")
	s.Set("k", val)
	val[0] = 'X' // mutate caller's slice
	got, _ := s.Get("k")
	if string(got) != "original" {
		t.Error("Set aliased the caller's value")
	}
	got[0] = 'Y' // mutate returned slice
	again, _ := s.Get("k")
	if string(again) != "original" {
		t.Error("Get returned aliased storage")
	}
}

func TestStoreEmptyValueVsMissing(t *testing.T) {
	s := NewStore()
	s.Set("empty", nil)
	v, ok := s.Get("empty")
	if !ok {
		t.Error("empty-valued key reported missing")
	}
	if len(v) != 0 {
		t.Errorf("value = %q, want empty", v)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("k%d-%d", w, i)
				s.Set(key, []byte(key))
				if v, ok := s.Get(key); !ok || !bytes.Equal(v, []byte(key)) {
					t.Errorf("lost write for %s", key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8000 {
		t.Errorf("Len = %d, want 8000", s.Len())
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := NewStore()
	for i := 0; i < 1024; i++ {
		s.Set(fmt.Sprintf("k%04d", i), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("k%04d", i%1024))
	}
}
