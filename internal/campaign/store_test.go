package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"weakorder/internal/digest"
)

func testKey(b byte) digest.Sum {
	var k digest.Sum
	for i := range k {
		k[i] = b
	}
	return k
}

// TestStoreRoundtrip pins the basic contract: entries put before a close are
// all recovered by the next open, with last-write-wins for duplicate keys.
func TestStoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.wocs")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(2), []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte(`{"a":99}`)); err != nil { // update
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Discarded != 0 {
		t.Fatalf("clean segment discarded %d bytes", s2.Discarded)
	}
	if s2.Len() != 2 {
		t.Fatalf("recovered %d entries, want 2", s2.Len())
	}
	if v, ok := s2.Get(testKey(1)); !ok || string(v) != `{"a":99}` {
		t.Fatalf("key 1 = %q, %v; want last write to win", v, ok)
	}
	if v, ok := s2.Get(testKey(2)); !ok || string(v) != `{"b":2}` {
		t.Fatalf("key 2 = %q, %v", v, ok)
	}
	st := s2.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 hits 0 misses", st)
	}
}

// TestStoreConcurrentAppend pins the Store under concurrent use: writers on
// separate goroutines interleave Get and Put on distinct keys, and every
// record must survive a close and reopen byte-identical, with no frame torn
// by an interleaved append and every counter exact.
func TestStoreConcurrentAppend(t *testing.T) {
	const writers, perWriter = 8, 32
	key := func(w, i int) digest.Sum {
		var k digest.Sum
		k[0], k[1], k[2] = byte(w), byte(i), 0xa5
		return k
	}
	value := func(w, i int) []byte {
		// Lengths vary so frames straddle different offsets.
		return []byte(fmt.Sprintf(`{"w":%d,"i":%d,"pad":%q}`, w, i, strings.Repeat("z", (w*perWriter+i)%97)))
	}
	path := filepath.Join(t.TempDir(), "cache.wocs")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, ok := s.Get(key(w, i)); ok {
					errs <- fmt.Errorf("writer %d: key %d present before its Put", w, i)
					return
				}
				if err := s.Put(key(w, i), value(w, i)); err != nil {
					errs <- err
					return
				}
				if v, ok := s.Get(key(w, i)); !ok || !bytes.Equal(v, value(w, i)) {
					errs <- fmt.Errorf("writer %d: key %d = %q, %v after Put", w, i, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const n = writers * perWriter
	if st := s.Stats(); st != (StoreStats{Entries: n, Hits: n, Misses: n, Puts: n}) {
		t.Fatalf("stats = %+v, want %d entries, hits, misses and puts", st, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Discarded != 0 || s2.Recovered != n {
		t.Fatalf("reopen recovered %d frames, discarded %d bytes; want %d and 0", s2.Recovered, s2.Discarded, n)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if v, ok := s2.Get(key(w, i)); !ok || !bytes.Equal(v, value(w, i)) {
				t.Fatalf("writer %d key %d = %q, %v after reopen; want %q", w, i, v, ok, value(w, i))
			}
		}
	}
	if st := s2.Stats(); st != (StoreStats{Entries: n, Hits: n}) {
		t.Fatalf("reopened stats = %+v, want %d entries and hits", st, n)
	}
}

// TestStoreCorruptTailTruncated pins crash recovery: damage confined to the
// tail — a torn final frame, or trailing garbage from a crash mid-append —
// costs only the damaged frame. Every intact frame before it survives, the
// damage is physically truncated (not trusted, not re-served), and the
// segment accepts new appends that survive the next open.
func TestStoreCorruptTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(data []byte) []byte
	}{
		{"torn final frame", func(data []byte) []byte { return data[:len(data)-3] }},
		{"flipped checksum byte", func(data []byte) []byte {
			data[len(data)-1] ^= 0xff
			return data
		}},
		{"trailing garbage", func(data []byte) []byte {
			return append(data, 0xde, 0xad, 0xbe, 0xef)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.wocs")
			s, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			for b := byte(1); b <= 3; b++ {
				if err := s.Put(testKey(b), bytes.Repeat([]byte{b}, 20)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Discarded == 0 {
				t.Fatalf("damage went undetected")
			}
			// Entries before the damage survive; at most the tail frame is lost.
			if s2.Len() < 2 {
				t.Fatalf("recovered only %d entries, want at least 2", s2.Len())
			}
			if _, ok := s2.Get(testKey(1)); !ok {
				t.Fatalf("intact leading entry lost")
			}
			// The store still appends, and the repair is durable.
			if err := s2.Put(testKey(9), []byte("post-repair")); err != nil {
				t.Fatal(err)
			}
			want := s2.Len()
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := OpenStore(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.Discarded != 0 {
				t.Fatalf("repaired segment still discards %d bytes", s3.Discarded)
			}
			if s3.Len() != want {
				t.Fatalf("post-repair reopen: %d entries, want %d", s3.Len(), want)
			}
			if v, ok := s3.Get(testKey(9)); !ok || string(v) != "post-repair" {
				t.Fatalf("post-repair entry lost: %q, %v", v, ok)
			}
		})
	}
}

// TestStoreVersionBumpInvalidates pins the upgrade story: a segment written
// under a different format version is discarded wholesale — never misread as
// current-format frames — and the file is reinitialized for the new version.
func TestStoreVersionBumpInvalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.wocs")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte("old-format")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = StoreVersion + 1 // a future (unknown) format version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("entries survived a version bump: %d", s2.Len())
	}
	if s2.Discarded != int64(len(data)) {
		t.Fatalf("Discarded = %d, want the whole %d-byte segment", s2.Discarded, len(data))
	}
	// The reinitialized segment is a valid current-version store.
	if err := s2.Put(testKey(2), []byte("new-format")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 1 || s3.Discarded != 0 {
		t.Fatalf("reinitialized segment: %d entries, %d discarded", s3.Len(), s3.Discarded)
	}
}

// TestStoreRefusesForeignFile pins the safety guard: a file that does not
// carry the cache magic is NEVER truncated or overwritten — pointing -cache
// at the wrong path must not destroy data.
func TestStoreRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	content := []byte("important file that is not a cache")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil || !strings.Contains(err.Error(), "not a result cache") {
		t.Fatalf("OpenStore on a foreign file: err = %v, want a bad-magic refusal", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatalf("foreign file was modified")
	}
}
