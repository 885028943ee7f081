package blobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"gallery/internal/wal"
)

// Generation g of a disk store in dir is index.<g>, a wal log of entries
// (CRC32C, length, key) shared by the replicas, and r<i>/volume.<g>,
// replica i's payloads back to back: a blob's offset is the sum of the
// lengths put before it. A put writes every volume at the index's end and
// then appends its entry, the visibility point; no put creates a file.
// Open truncates volume bytes past the index's end and rewrites the store
// into g+1 when it must (see openDisk). DESIGN.md, "Blob volumes", has the
// whole protocol.

const rewriteDeadBytes = 1 << 20

// maxBlobSize bounds a decoded length, so a bad entry cannot overflow offsets.
const maxBlobSize = 1 << 40

var errBadEntry = errors.New("blobstore: malformed index entry")

// appendEntry encodes an index entry: sum (4 bytes, little-endian),
// uvarint(n+1) or 0 for a tombstone (n < 0, sum 0), uvarint(len(key)), key.
func appendEntry(b []byte, key string, n int64, sum uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, sum)
	b = binary.AppendUvarint(b, uint64(n+1))
	b = binary.AppendUvarint(b, uint64(len(key)))
	return append(b, key...)
}

// decodeEntry inverts appendEntry, rejecting anything it cannot produce
// but a non-minimal uvarint.
func decodeEntry(p []byte) (key string, n int64, sum uint32, err error) {
	if len(p) < 4 {
		return "", 0, 0, errBadEntry
	}
	sum = binary.LittleEndian.Uint32(p)
	v, a := binary.Uvarint(p[4:])
	if a <= 0 || v > maxBlobSize+1 || (v == 0 && sum != 0) {
		return "", 0, 0, errBadEntry
	}
	kl, b := binary.Uvarint(p[4+a:])
	rest := p[4+a+max(b, 0):]
	if key = string(rest); b <= 0 || kl != uint64(len(rest)) || !validKey(key) {
		return "", 0, 0, errBadEntry
	}
	return key, int64(v) - 1, sum, nil
}

// extent locates a live blob: the same bytes of every replica's volume.
type extent struct {
	off, n int64
	sum    uint32
}

// diskBackend is one open generation of a disk store.
type diskBackend struct {
	dir        string
	gen        int
	index      *wal.Log
	vols       []*os.File
	blobs      map[string]extent
	end        int64 // every volume's length: the payloads the index names
	live, dead int64
	short      bool   // a volume ended before end when opened
	buf        []byte // reused to encode entries
}

func indexPath(dir string, g int) string { return filepath.Join(dir, "index."+strconv.Itoa(g)) }

func replicaDir(dir string, i int) string { return filepath.Join(dir, "r"+strconv.Itoa(i)) }

func volumePath(dir string, i, g int) string {
	return filepath.Join(replicaDir(dir, i), "volume."+strconv.Itoa(g))
}

// openDisk opens the store in dir. It rewrites it into the next generation
// first when legacy per-blob files (r<i>/<key>, [CRC32C][payload]) are
// present, when a volume ends before the index does (a power loss: blobs
// are written without fsync), or when dead bytes exceed both the live bytes
// and rewriteDeadBytes. The returned Stats say what opening did.
func openDisk(dir string, replicas int) (*diskBackend, Stats, error) {
	var opened Stats
	for {
		gen, legacy, err := sweep(dir, replicas)
		if err != nil {
			return nil, opened, err
		}
		d, err := load(dir, max(gen, 1), replicas)
		if err != nil {
			return nil, opened, err
		}
		if len(legacy) == 0 && !d.short && (d.dead <= d.live || d.dead <= rewriteDeadBytes) {
			return d, opened, nil
		}
		skips, err := d.rewrite(d.gen+1, legacy)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = commitGen(dir, d.gen+1, replicas)
		}
		// Committed: the legacy files go before anything else is written,
		// so no later open imports one again; the next sweep removes the
		// old generation.
		for _, p := range legacy {
			if err == nil {
				if err = os.Remove(p); errors.Is(err, os.ErrNotExist) {
					err = nil
				}
			}
		}
		if err != nil {
			return nil, opened, fmt.Errorf("blobstore: rewrite %s: %w", dir, err)
		}
		opened = Stats{CorruptSkips: skips, Imported: int64(len(legacy)), Compacted: true}
	}
}

// sweep finds dir's highest committed generation (0 if none), removes
// every other generation's files and every *.tmp, and returns the paths of
// the legacy per-blob files in the replica directories.
func sweep(dir string, replicas int) (gen int, legacy []string, err error) {
	genOf := func(name, prefix string) int { // 0: not a generation's file
		g, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
		if err != nil || !strings.HasPrefix(name, prefix) {
			return 0
		}
		return max(g, 0)
	}
	top, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, nil, err
	}
	for _, e := range top {
		gen = max(gen, genOf(e.Name(), "index."))
	}
	var stale []string
	for _, e := range top {
		if g := genOf(e.Name(), "index."); (g != 0 && g != gen) || strings.HasSuffix(e.Name(), ".tmp") {
			stale = append(stale, filepath.Join(dir, e.Name()))
		}
	}
	for i := 0; i < replicas; i++ {
		sub := replicaDir(dir, i)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return 0, nil, err
		}
		files, err := os.ReadDir(sub)
		if err != nil {
			return 0, nil, err
		}
		for _, e := range files {
			switch g := genOf(e.Name(), "volume."); {
			case e.IsDir() || (g != 0 && g == gen):
			case g != 0 || strings.HasSuffix(e.Name(), ".tmp"):
				stale = append(stale, filepath.Join(sub, e.Name()))
			default:
				legacy = append(legacy, filepath.Join(sub, e.Name()))
			}
		}
	}
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return 0, nil, err
		}
	}
	return gen, legacy, nil
}

// load opens generation g, creating empty files where there are none. It
// replays the index, truncates volume bytes past the index's end and notes
// a volume that ends before it.
func load(dir string, g, replicas int) (*diskBackend, error) {
	d := &diskBackend{dir: dir, gen: g, blobs: map[string]extent{}}
	var err error
	d.index, err = wal.Open(indexPath(dir, g), wal.Options{}, func(p []byte) error {
		key, n, sum, err := decodeEntry(p)
		if err == nil {
			d.apply(key, n, sum)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("blobstore: open index: %w", err)
	}
	for i := 0; i < replicas; i++ {
		f, err := os.OpenFile(volumePath(dir, i, g), os.O_RDWR|os.O_CREATE, 0o644)
		var st os.FileInfo
		if err == nil {
			d.vols = append(d.vols, f)
			st, err = f.Stat()
		}
		if err == nil && st.Size() > d.end {
			err = f.Truncate(d.end)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("blobstore: open volume: %w", err)
		}
		d.short = d.short || st.Size() < d.end
	}
	return d, nil
}

// apply records an index entry: a put of n bytes at the volumes' end, or a
// tombstone (n < 0). Either makes the key's previous payload dead.
func (d *diskBackend) apply(key string, n int64, sum uint32) {
	if old, ok := d.blobs[key]; ok {
		d.live -= old.n
		d.dead += old.n
		delete(d.blobs, key)
	}
	if n >= 0 {
		d.blobs[key] = extent{off: d.end, n: n, sum: sum}
		d.end += n
		d.live += n
	}
}

// log appends an index entry and applies it.
func (d *diskBackend) log(key string, n int64, sum uint32) error {
	d.buf = appendEntry(d.buf[:0], key, n, sum)
	if err := d.index.AppendNoSync(d.buf); err != nil {
		return err
	}
	d.apply(key, n, sum)
	return nil
}

func (d *diskBackend) put(key string, data []byte, sum uint32, hook FaultHook) (err error) {
	for i, f := range d.vols {
		if err = fault(hook, OpPut, i, key); err == nil {
			_, err = f.WriteAt(data, d.end)
		}
		if err != nil {
			err = replicaErr("put", key, i, err)
			break
		}
	}
	if err == nil {
		if err = d.log(key, int64(len(data)), sum); err != nil {
			err = fmt.Errorf("blobstore: put %s: %w", key, err)
		}
	}
	if err != nil {
		for _, f := range d.vols {
			// Best effort: the next put overwrites these bytes, and open
			// truncates whatever lies past the index's end.
			_ = f.Truncate(d.end)
		}
	}
	return err
}

func (d *diskBackend) read(replica int, key string) ([]byte, uint32, error) {
	e, ok := d.blobs[key]
	if !ok {
		return nil, 0, ErrNotFound
	}
	data := make([]byte, e.n)
	if _, err := d.vols[replica].ReadAt(data, e.off); err != nil {
		if errors.Is(err, io.EOF) {
			err = ErrNotFound // a short volume: not on this replica
		}
		return nil, 0, err
	}
	return data, e.sum, nil
}

func (d *diskBackend) remove(key string) error {
	if _, ok := d.blobs[key]; !ok {
		return ErrNotFound
	}
	return d.log(key, -1, 0)
}

func (d *diskBackend) keys() []string { return slices.Sorted(maps.Keys(d.blobs)) }

func (d *diskBackend) corrupt(replica int, key string) error {
	data, _, err := d.read(replica, key)
	if err == nil {
		err = flipLast(data)
	}
	if err == nil {
		_, err = d.vols[replica].WriteAt(data, d.blobs[key].off)
	}
	return err
}

func (d *diskBackend) footprint() (int, int64, int64) { return len(d.blobs), d.live, d.dead }

// close may run twice; afterwards every operation fails with a closed
// file's error.
func (d *diskBackend) close() error {
	var errs []error
	if d.index != nil {
		errs = append(errs, d.index.Close())
	}
	for _, f := range d.vols {
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// rewrite writes generation g, uncommitted: every live blob, then every
// legacy file's blob the index lacks, each copied from its first intact
// replica; a blob intact on none is dropped. It returns the corrupt copies
// it passed over.
func (d *diskBackend) rewrite(g int, legacy []string) (skips int64, err error) {
	next := &diskBackend{dir: d.dir, gen: g, blobs: map[string]extent{}}
	defer next.close()
	if next.index, err = wal.Open(indexPath(d.dir, g)+".tmp", wal.Options{Sync: true}, nil); err != nil {
		return 0, err
	}
	for i := range d.vols {
		f, err := os.Create(volumePath(d.dir, i, g))
		if err != nil {
			return 0, err
		}
		next.vols = append(next.vols, f)
	}
	copyFirst := func(key string, read func(replica int) ([]byte, uint32, error)) error {
		for i := range next.vols {
			data, sum, err := read(i)
			if err == nil && crc32.Checksum(data, crcTable) == sum {
				return next.put(key, data, sum, nil)
			}
			if err == nil {
				skips++
			}
		}
		return nil
	}
	for key := range d.blobs {
		if err := copyFirst(key, func(i int) ([]byte, uint32, error) { return d.read(i, key) }); err != nil {
			return skips, err
		}
	}
	for _, p := range legacy {
		key := filepath.Base(p)
		_, live := d.blobs[key]
		if _, done := next.blobs[key]; live || done || !validKey(key) {
			continue
		}
		if err := copyFirst(key, func(i int) ([]byte, uint32, error) {
			framed, err := os.ReadFile(filepath.Join(replicaDir(d.dir, i), key))
			if err != nil || len(framed) < 4 {
				return nil, 0, ErrNotFound
			}
			return framed[4:], binary.LittleEndian.Uint32(framed), nil
		}); err != nil {
			return skips, err
		}
	}
	for _, f := range next.vols {
		if err := f.Sync(); err != nil {
			return skips, err
		}
	}
	return skips, next.close() // the index's close fsyncs it
}

// commitGen makes rewritten generation g durable and current: the new
// volumes' directory entries first, then the rename of its index.
func commitGen(dir string, g, replicas int) error {
	for i := 0; i < replicas; i++ {
		if err := syncDir(replicaDir(dir, i)); err != nil {
			return err
		}
	}
	if err := os.Rename(indexPath(dir, g)+".tmp", indexPath(dir, g)); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
