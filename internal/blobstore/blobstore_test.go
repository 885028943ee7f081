package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewMemory(Options{})
	data := []byte("serialized random forest")
	loc, err := s.Put("inst-1", data)
	if err != nil {
		t.Fatal(err)
	}
	if loc != "mem://gallery/inst-1" {
		t.Fatalf("location = %q", loc)
	}
	got, err := s.Get(loc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewMemory(Options{})
	if _, err := s.Get("mem://gallery/nothing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestBadLocations(t *testing.T) {
	s := NewMemory(Options{})
	for _, loc := range []string{"", "mem://gallery/", "s3://other/x", "inst-1"} {
		if _, err := s.Get(loc); !errors.Is(err, ErrBadLoc) {
			t.Errorf("Get(%q) = %v, want ErrBadLoc", loc, err)
		}
	}
}

func TestInvalidKeys(t *testing.T) {
	s := NewMemory(Options{})
	for _, key := range []string{"", "a/b", "a\\b"} {
		if _, err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) succeeded", key)
		}
	}
}

func TestDelete(t *testing.T) {
	s := NewMemory(Options{})
	loc, err := s.Put("k", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(loc); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(loc); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if err := s.Delete(loc); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	// Gallery never overwrites blobs (immutability lives in the DAL/core
	// layers), but the raw store is a plain KV: last write wins.
	s := NewMemory(Options{})
	if _, err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	loc, err := s.Put("k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(loc)
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
}

func TestCorruptReplicaFailover(t *testing.T) {
	s := NewMemory(Options{Replicas: 3})
	loc, err := s.Put("k", []byte("precious model bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptReplica(0, "k"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(loc)
	if err != nil {
		t.Fatalf("Get with one corrupt replica failed: %v", err)
	}
	if string(got) != "precious model bytes" {
		t.Fatalf("got %q", got)
	}
	if s.Stats().CorruptSkips != 1 {
		t.Fatalf("CorruptSkips = %d", s.Stats().CorruptSkips)
	}
}

func TestAllReplicasCorrupt(t *testing.T) {
	s := NewMemory(Options{Replicas: 2})
	loc, err := s.Put("k", []byte("bytes"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.CorruptReplica(i, "k"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get(loc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get with all replicas corrupt = %v, want ErrCorrupt", err)
	}
}

// A failed put leaves nothing of itself visible on either backend: not a
// new key, not a new version of an old one, and no disk volume bytes.
func TestFaultHookFailsPut(t *testing.T) {
	boom := errors.New("injected")
	fail := true
	opts := Options{Replicas: 3, Hook: func(op OpKind, replica int, key string) error {
		if fail && op == OpPut && replica == 1 {
			return boom
		}
		return nil
	}}
	for name, s := range backends(t, opts) {
		t.Run(name, func(t *testing.T) {
			fail = true
			if _, err := s.Put("k", []byte("partial")); !errors.Is(err, boom) {
				t.Fatalf("Put = %v, want injected error", err)
			}
			if _, err := s.Get(s.Location("k")); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after failed put = %v, want ErrNotFound", err)
			}
			if keys := s.Keys(); len(keys) != 0 {
				t.Fatalf("Keys after failed put = %v", keys)
			}
			if d, ok := s.b.(*diskBackend); ok {
				for i, f := range d.vols {
					if st, err := f.Stat(); err != nil || st.Size() != 0 {
						t.Fatalf("volume %d after failed put: %d bytes, %v", i, st.Size(), err)
					}
				}
			}
			fail = false
			if _, err := s.Put("k", []byte("v1")); err != nil {
				t.Fatalf("Put after clearing fault = %v", err)
			}
			fail = true
			if _, err := s.Put("k", []byte("v2, longer")); !errors.Is(err, boom) {
				t.Fatalf("Put = %v, want injected error", err)
			}
			if got, err := s.Get(s.Location("k")); err != nil || string(got) != "v1" {
				t.Fatalf("Get after failed overwrite = %q, %v", got, err)
			}
			if st := s.Stats(); st.Blobs != 1 || st.LiveBytes != 2 {
				t.Fatalf("footprint = %d blobs, %d live bytes", st.Blobs, st.LiveBytes)
			}
		})
	}
}

func TestFaultHookGetFallsThrough(t *testing.T) {
	boom := errors.New("replica down")
	s := NewMemory(Options{Replicas: 3, Hook: func(op OpKind, replica int, key string) error {
		if op == OpGet && replica == 0 {
			return boom
		}
		return nil
	}})
	loc, err := s.Put("k", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(loc); err != nil {
		t.Fatalf("Get with replica 0 down = %v", err)
	}
}

func TestDiskBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := s.Put("inst-7", bytes.Repeat([]byte{7}, 10000))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10000 || got[0] != 7 {
		t.Fatalf("disk round trip corrupted data: len=%d", len(got))
	}

	// A second store over the same directory sees the blob (durability).
	s2, err := NewDisk(dir, Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	loc2 := s2.Location("inst-7")
	if _, err := s2.Get(loc2); err != nil {
		t.Fatalf("reopened disk store Get = %v", err)
	}
}

func TestDiskCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := s.Put("k", []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CorruptReplica(0, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(loc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
}

func TestKeysListsUnion(t *testing.T) {
	s := NewMemory(Options{Replicas: 2})
	for _, k := range []string{"b", "a", "c"} {
		if _, err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestStatsAndLatencyAccounting(t *testing.T) {
	s := NewMemory(Options{
		Replicas: 2,
		Latency:  LatencyModel{Base: time.Millisecond, PerKB: time.Microsecond},
	})
	loc, err := s.Put("k", make([]byte, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(loc); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.BytesIn != 2048 || st.BytesOut != 2048 {
		t.Fatalf("stats = %+v", st)
	}
	// Put: base + 4KiB (2KiB x 2 replicas) transfer; Get: base + 2KiB.
	want := 2*time.Millisecond + 6*time.Microsecond
	if st.Latency != want {
		t.Fatalf("Latency = %v, want %v", st.Latency, want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range backends(t, Options{}) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						key := fmt.Sprintf("w%d-k%d", w, i)
						loc, err := s.Put(key, []byte(key))
						if err != nil {
							t.Errorf("put: %v", err)
							return
						}
						got, err := s.Get(loc)
						if err != nil || string(got) != key {
							t.Errorf("get %s: %q %v", key, got, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if got := len(s.Keys()); got != 800 {
				t.Fatalf("stored %d blobs, want 800", got)
			}
		})
	}
}

// Property: any payload round-trips bit-exactly through frame/unframe and
// through the store itself.
func TestQuickRoundTrip(t *testing.T) {
	s := NewMemory(Options{})
	i := 0
	f := func(data []byte) bool {
		i++
		loc, err := s.Put(fmt.Sprintf("q%d", i), data)
		if err != nil {
			return false
		}
		got, err := s.Get(loc)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: single-byte corruption anywhere in a stored payload is detected.
func TestQuickCorruptionDetected(t *testing.T) {
	s, err := NewDisk(t.TempDir(), Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vol := s.b.(*diskBackend).vols[0]
	i := 0
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		i++
		key := fmt.Sprintf("q%d", i)
		loc, err := s.Put(key, data)
		if err != nil {
			return false
		}
		at := s.b.(*diskBackend).blobs[key].off + int64(int(pos)%len(data))
		b := make([]byte, 1)
		if _, err := vol.ReadAt(b, at); err != nil {
			return false
		}
		b[0] ^= 0xFF
		if _, err := vol.WriteAt(b, at); err != nil {
			return false
		}
		_, err = s.Get(loc)
		return errors.Is(err, ErrCorrupt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
