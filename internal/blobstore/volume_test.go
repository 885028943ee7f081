package blobstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// backends opens one store of each kind for a table-driven test.
func backends(t *testing.T, opts Options) map[string]*Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]*Store{"mem": NewMemory(opts), "disk": disk}
}

// dirFiles lists every regular file under dir, relative to it, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			rel, _ := filepath.Rel(dir, p)
			out = append(out, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func genFiles(g, replicas int) []string {
	out := []string{fmt.Sprintf("index.%d", g)}
	for i := 0; i < replicas; i++ {
		out = append(out, fmt.Sprintf("r%d/volume.%d", i, g))
	}
	return out
}

func TestDiskPutCreatesNoFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blob := bytes.Repeat([]byte{0x5A}, 256)
	for i := 0; i < 1000; i++ {
		if _, err := s.Put(fmt.Sprintf("blob-%04d", i), blob); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := s.Delete(s.Location(fmt.Sprintf("blob-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dirFiles(t, dir), genFiles(1, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("blob dir holds %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("late", blob); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
}

// TestDiskAllocs pins the disk path's allocations. A put writes the
// caller's bytes as they are, with no framed copy: its two allocations are
// the location string and the index record's frame header, which escapes
// inside wal.AppendNoSync. A get allocates only the payload it returns.
func TestDiskAllocs(t *testing.T) {
	s := backends(t, Options{})["disk"]
	blob := bytes.Repeat([]byte{1}, 4096)
	loc, err := s.Put("k", blob)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Put("k", blob) }); n != 2 {
		t.Errorf("Put allocs = %v, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Get(loc) }); n != 1 {
		t.Errorf("Get allocs = %v, want 1", n)
	}
}

func TestDiskCompactsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, rewriteDeadBytes+1)
	for _, k := range []string{"a", "b"} {
		if _, err := s.Put(k, big); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put("keep", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Delete(s.Location("a"))
	if st := s.Stats(); st.DeadBytes != int64(len(big)) || st.LiveBytes != int64(len(big))+4 {
		t.Fatalf("before: %+v", st)
	}
	s.Close()

	// Dead bytes under the live bytes: no rewrite.
	if s, err = NewDisk(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compacted {
		t.Fatalf("rewrote with dead <= live: %+v", st)
	}
	s.Delete(s.Location("b"))
	// The rewrite copies each blob from its first intact replica.
	if err := s.CorruptReplica(0, "keep"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if s, err = NewDisk(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); !st.Compacted || st.CorruptSkips != 1 || st.Blobs != 1 || st.LiveBytes != 4 || st.DeadBytes != 0 {
		t.Fatalf("after: %+v", st)
	}
	if got, err := s.Get(s.Location("keep")); err != nil || string(got) != "kept" {
		t.Fatalf("Get after compaction = %q, %v", got, err)
	}
	if got, want := dirFiles(t, dir), genFiles(2, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("blob dir holds %v, want %v", got, want)
	}
}

// image is a closed disk store's generation-1 files, as bytes.
type image struct {
	index []byte
	vols  [][]byte
}

func readImage(t *testing.T, dir string, replicas int) image {
	t.Helper()
	var im image
	var err error
	if im.index, err = os.ReadFile(indexPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < replicas; i++ {
		v, err := os.ReadFile(volumePath(dir, i, 1))
		if err != nil {
			t.Fatal(err)
		}
		im.vols = append(im.vols, v)
	}
	return im
}

func (im image) write(t *testing.T, dir string) {
	t.Helper()
	for i, v := range im.vols {
		if err := os.MkdirAll(replicaDir(dir, i), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(volumePath(dir, i, 1), v, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(indexPath(dir, 1), im.index, 0o644); err != nil {
		t.Fatal(err)
	}
}

// frames splits a wal log into its records' payloads and end offsets.
func frames(log []byte) (payloads [][]byte, ends []int) {
	for off := 0; off+8 <= len(log); {
		n := int(binary.LittleEndian.Uint32(log[off:]))
		if off+8+n > len(log) {
			break
		}
		payloads = append(payloads, log[off+8:off+8+n])
		off += 8 + n
		ends = append(ends, off)
	}
	return payloads, ends
}

// expect replays index payloads the way open does and returns each live
// key's payload, read from the first volume long enough to hold it. A key
// whose latest payload no volume holds is absent.
func (im image) expect(t *testing.T, payloads [][]byte) map[string][]byte {
	t.Helper()
	live := map[string]extent{}
	var end int64
	for _, p := range payloads {
		key, n, sum, err := decodeEntry(p)
		if err != nil {
			t.Fatal(err)
		}
		delete(live, key)
		if n >= 0 {
			live[key] = extent{off: end, n: n, sum: sum}
			end += n
		}
	}
	out := map[string][]byte{}
	for key, e := range live {
		for _, v := range im.vols {
			if e.off+e.n <= int64(len(v)) {
				out[key] = v[e.off : e.off+e.n]
				break
			}
		}
	}
	return out
}

// check opens dir and asserts it holds exactly want, then that a new put
// survives a second reopen.
func check(t *testing.T, dir string, replicas int, want map[string][]byte) {
	t.Helper()
	s, err := NewDisk(dir, Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := s.Keys(); !reflect.DeepEqual(got, keys) && len(got)+len(keys) > 0 {
		t.Fatalf("Keys = %v, want %v", got, keys)
	}
	for k, v := range want {
		if got, err := s.Get(s.Location(k)); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get %s = %q, %v; want %q", k, got, err, v)
		}
	}
	d := s.b.(*diskBackend)
	for i, f := range d.vols {
		if st, err := f.Stat(); err != nil || st.Size() != d.end {
			t.Fatalf("volume %d holds %d bytes, index ends at %d (%v)", i, st.Size(), d.end, err)
		}
	}
	if _, err := s.Put("after-crash", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = NewDisk(dir, Options{Replicas: replicas}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.Get(s.Location("after-crash")); err != nil || string(got) != "fresh" {
		t.Fatalf("put after reopen lost: %q, %v", got, err)
	}
	if got := len(s.Keys()); got != len(want)+1 {
		t.Fatalf("second reopen holds %d keys, want %d", got, len(want)+1)
	}
	if st := s.Stats(); st.CorruptSkips != 0 {
		t.Fatalf("second reopen skipped %d corrupt copies", st.CorruptSkips)
	}
}

// TestDiskCrashSweep writes puts, overwrites and deletes, then cuts the
// index at every entry boundary and mid-entry, and the volumes at every
// blob boundary and mid-payload, one replica or all of them. After each
// reopen exactly the entries that survived the cut and are intact on some
// replica are visible, bit-exact.
func TestDiskCrashSweep(t *testing.T) {
	const replicas = 3
	src := t.TempDir()
	s, err := NewDisk(src, Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(10))
		if rng.Intn(5) == 0 {
			s.Delete(s.Location(key)) // may be ErrNotFound: a tombstone-free no-op
			continue
		}
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		if _, err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	im := readImage(t, src, replicas)
	payloads, ends := frames(im.index)
	if len(ends) < 30 || ends[len(ends)-1] != len(im.index) {
		t.Fatalf("index has %d records over %d bytes", len(ends), len(im.index))
	}

	t.Run("index", func(t *testing.T) {
		start := 0
		for r, end := range ends {
			// At the record's start, inside its header, mid-record, and
			// one byte short of its end: the record is torn off.
			for _, at := range []int{start, start + 3, (start + end) / 2, end - 1} {
				dir := t.TempDir()
				image{index: im.index[:at], vols: im.vols}.write(t, dir)
				check(t, dir, replicas, im.expect(t, payloads[:r]))
			}
			start = end
		}
		dir := t.TempDir()
		im.write(t, dir)
		check(t, dir, replicas, im.expect(t, payloads))
	})

	t.Run("volumes", func(t *testing.T) {
		var points []int
		var end int64
		for _, p := range payloads {
			if _, n, _, _ := decodeEntry(p); n > 0 {
				points = append(points, int(end), int(end+n/2))
				end += n
			}
		}
		points = append(points, int(end))
		for _, at := range points {
			for _, all := range []bool{false, true} {
				cut := image{index: im.index, vols: append([][]byte(nil), im.vols...)}
				for i := range cut.vols {
					if all || i == 1 {
						cut.vols[i] = cut.vols[i][:at]
					}
				}
				dir := t.TempDir()
				cut.write(t, dir)
				check(t, dir, replicas, cut.expect(t, payloads))
			}
		}
	})
}

// TestDiskGenerationSwapCrash crashes a rewrite before and after the
// rename that commits it: the store comes back as exactly one generation,
// holding exactly what it held before.
func TestDiskGenerationSwapCrash(t *testing.T) {
	const replicas = 3
	src := t.TempDir()
	s, err := NewDisk(src, Options{Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		key, data := fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100*i)
		if _, err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		want[key] = data
	}
	s.Put("big", make([]byte, rewriteDeadBytes+1))
	s.Delete(s.Location("big"))
	s.Close()
	im := readImage(t, src, replicas)

	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"before rename, torn", func(t *testing.T, dir string) {
			os.WriteFile(indexPath(dir, 2)+".tmp", im.index[:len(im.index)/2], 0o644)
			os.WriteFile(volumePath(dir, 0, 2), im.vols[0][:10], 0o644)
		}},
		{"before rename", func(t *testing.T, dir string) {
			d, err := load(dir, 1, replicas)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			if _, err := d.rewrite(2, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"after rename", func(t *testing.T, dir string) {
			d, err := load(dir, 1, replicas)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			if _, err := d.rewrite(2, nil); err != nil {
				t.Fatal(err)
			}
			if err := commitGen(dir, 2, replicas); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			im.write(t, dir)
			tc.crash(t, dir)
			s, err := NewDisk(dir, Options{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			s.Close()
			if st.DeadBytes != 0 || st.Blobs != int64(len(want)) {
				t.Fatalf("reopened store: %+v", st)
			}
			// Generation 2 either way: committed by the crashed swap, or
			// by the rewrite this open redid. Nothing of another is left.
			if got, want := dirFiles(t, dir), genFiles(2, replicas); !reflect.DeepEqual(got, want) {
				t.Fatalf("blob dir holds %v, want %v", got, want)
			}
			check(t, dir, replicas, want)
		})
	}
}

// TestDiskImportsPerBlobFiles opens the per-blob layout the volumes
// replaced: r<i>/<key> files holding [CRC32C][payload], a .tmp leftover of
// an interrupted write, and one corrupt replica copy.
func TestDiskImportsPerBlobFiles(t *testing.T) {
	dir := t.TempDir()
	want := map[string][]byte{"a": []byte("alpha"), "b": []byte("bravo"), "c": bytes.Repeat([]byte("c"), 5000)}
	files := 0
	for i := 0; i < 3; i++ {
		sub := replicaDir(dir, i)
		os.MkdirAll(sub, 0o755)
		for key, data := range want {
			framed := binary.LittleEndian.AppendUint32(nil, crc32.Checksum(data, crcTable))
			framed = append(framed, data...)
			if i == 0 && key == "c" {
				framed[len(framed)-1] ^= 0xFF
			}
			if i == 2 && key == "a" {
				continue // never reached this replica
			}
			if err := os.WriteFile(filepath.Join(sub, key), framed, 0o644); err != nil {
				t.Fatal(err)
			}
			files++
		}
	}
	if err := os.WriteFile(filepath.Join(replicaDir(dir, 1), "b.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Imported != int64(files) || !st.Compacted || st.CorruptSkips != 1 || st.Blobs != 3 {
		t.Fatalf("open after import: %+v", st)
	}
	for key, data := range want {
		if got, err := s.Get(s.Location(key)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %s = %q, %v", key, got, err)
		}
	}
	s.Close()
	// The import rewrote generation 1, the empty one open created, into 2.
	if got, want := dirFiles(t, dir), genFiles(2, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("blob dir holds %v, want %v", got, want)
	}

	s, err = NewDisk(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Imported != 0 || st.Compacted || st.Blobs != 3 {
		t.Fatalf("second open: %+v", st)
	}
	for key, data := range want {
		if got, err := s.Get(s.Location(key)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get %s after second open = %q, %v", key, got, err)
		}
	}
	s.Close()

	// A legacy file an interrupted removal left behind never shadows the
	// index's version of its key.
	stale := binary.LittleEndian.AppendUint32(nil, crc32.Checksum([]byte("stale"), crcTable))
	if err := os.WriteFile(filepath.Join(replicaDir(dir, 0), "a"), append(stale, "stale"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = NewDisk(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, err := s.Get(s.Location("a")); err != nil || string(got) != "alpha" {
		t.Fatalf("Get a after a leftover legacy file = %q, %v", got, err)
	}
	if got, want := dirFiles(t, dir), genFiles(3, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("blob dir holds %v, want %v", got, want)
	}
}

func TestDecodeEntryRejects(t *testing.T) {
	ok := appendEntry(nil, "k", 3, 9)
	for name, p := range map[string][]byte{
		"empty":             nil,
		"short sum":         ok[:3],
		"no key length":     ok[:5],
		"short key":         ok[:len(ok)-1],
		"trailing garbage":  append(bytes.Clone(ok), 'x'),
		"tombstone sum":     appendEntry(nil, "k", -1, 9),
		"empty key":         appendEntry(nil, "", 3, 9),
		"separator in key":  appendEntry(nil, "a/b", 3, 9),
		"oversized length":  appendEntry(nil, "k", maxBlobSize+1, 9),
		"overflowing value": append(binary.LittleEndian.AppendUint32(nil, 0), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 'k'),
	} {
		if _, _, _, err := decodeEntry(p); !errors.Is(err, errBadEntry) {
			t.Errorf("%s: decodeEntry(%x) = %v, want errBadEntry", name, p, err)
		}
	}
	if key, n, sum, err := decodeEntry(ok); err != nil || key != "k" || n != 3 || sum != 9 {
		t.Fatalf("decodeEntry(ok) = %q %d %d %v", key, n, sum, err)
	}
}

func FuzzBlobIndexEntry(f *testing.F) {
	f.Add(appendEntry(nil, "inst-1", 4096, 0xDEADBEEF))
	f.Add(appendEntry(nil, "inst-1", -1, 0))
	f.Add(appendEntry(nil, "e", 0, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		key, n, sum, err := decodeEntry(p)
		if err != nil {
			return
		}
		enc := appendEntry(nil, key, n, sum)
		key2, n2, sum2, err := decodeEntry(enc)
		if err != nil || key2 != key || n2 != n || sum2 != sum {
			t.Fatalf("round trip of (%q, %d, %#x) = (%q, %d, %#x), %v", key, n, sum, key2, n2, sum2, err)
		}
		for _, tail := range [][]byte{p, enc} {
			if _, _, _, err := decodeEntry(append(bytes.Clone(tail), 0)); err == nil {
				t.Fatalf("trailing garbage after %x accepted", tail)
			}
		}
	})
}
