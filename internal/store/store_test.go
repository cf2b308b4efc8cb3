package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		key("a"): []byte(`{"predictor":"stems","covered":42}`),
		key("b"): {},
		key("c"): bytes.Repeat([]byte{0xAB}, 1<<16),
	}
	for k, v := range payloads {
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%s): %v", k[:8], err)
		}
	}
	for k, want := range payloads {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("Get(%s): miss", k[:8])
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): %d bytes, want %d", k[:8], len(got), len(want))
		}
	}
	if _, ok := s.Get(key("nope")); ok {
		t.Fatal("Get of unknown key hit")
	}
	st := s.Stats()
	if st.Entries != 3 || st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 entries / 3 hits / 1 miss", st)
	}
	var want int64
	for _, v := range payloads {
		want += int64(len(v))
	}
	if st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestFanoutLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	k := key("layout")
	if err := s.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if rel, _ := filepath.Rel(dir, s.path(k)); rel != filepath.Join(k[:2], k) {
		t.Fatalf("entry path %s, want dir/%s/<key>", rel, k[:2])
	}
	if _, err := os.Stat(s.path(k)); err != nil {
		t.Fatalf("entry not at fanout path %s: %v", s.path(k), err)
	}
}

// TestOpenLeavesForeignFiles puts files the store did not write where
// Open looks: the scheduler's state (stemsd's default is <store>/
// schedules.json), a non-key file in a fanout directory, and a complete
// entry under its key in the wrong fanout directory. Open must neither
// index, move nor delete any of them.
func TestOpenLeavesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	ours := key("ours")
	if err := s.Put(ours, []byte("ours")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	foreign := map[string][]byte{
		filepath.Join(dir, "schedules.json"):                []byte(`{"schedules":{}}`),
		filepath.Join(dir, "schedules.json.tmp"):            []byte(`{"sched`),
		filepath.Join(filepath.Dir(s.path(ours)), "README"): []byte("not an entry"),
	}
	for path, data := range foreign {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	misplaced := key("misplaced")
	wrongFan := "00"
	if misplaced[:2] == wrongFan {
		wrongFan = "ff"
	}
	wrong := filepath.Join(dir, wrongFan, misplaced)
	if err := writeEntry(wrong, []byte("a complete entry in the wrong place")); err != nil {
		t.Fatal(err)
	}
	if foreign[wrong], err = os.ReadFile(wrong); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1: a foreign file was indexed", got)
	}
	if s2.Contains(misplaced) {
		t.Fatal("entry in the wrong fanout directory indexed")
	}
	if m := s2.Stats().Migrated; m != 0 {
		t.Fatalf("Migrated = %d, want 0", m)
	}
	for path, want := range foreign {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("foreign file %s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("foreign file %s rewritten", path)
		}
	}
}

// TestOpenMigratesTwoLevelStore opens stores written in the two-level
// layout of earlier versions, dir/ab/cd/<key>, with a bound one below
// the entry count: one as that layout left it, one whose migration a
// crash cut short, and one that also holds an entry in both layouts (a
// two-level daemon run after a migration rewrites its keys there).
func TestOpenMigratesTwoLevelStore(t *testing.T) {
	const n = 6
	for _, c := range []struct {
		name     string
		premoved int // entries already moved up one level
		both     int // entries also copied up, left in the old layout too
	}{
		{"two-level", 0, 0},
		{"half-migrated", 3, 0},
		{"both-layouts", 0, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := (&Store{dir: dir}).path
			twoLevel := func(k string) string { return filepath.Join(dir, k[:2], k[2:4], k) }
			keys := make([]string, n) // oldest mtime first
			want := make(map[string][]byte)
			for i := range keys {
				k := key(fmt.Sprint("two-level-", i))
				keys[i], want[k] = k, []byte(fmt.Sprintf(`{"run":%d}`, i))
				if err := writeEntry(twoLevel(k), want[k]); err != nil {
					t.Fatal(err)
				}
				mt := time.Now().Add(time.Duration(i-n) * time.Hour)
				if err := os.Chtimes(twoLevel(k), mt, mt); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:c.both] {
				if err := writeEntry(path(k), want[k]); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range keys[:c.premoved] {
				if err := os.Rename(twoLevel(k), path(k)); err != nil {
					t.Fatal(err)
				}
			}
			leaf := filepath.Dir(twoLevel(keys[n-1]))
			tmp := filepath.Join(leaf, keys[n-1]+".123456.tmp")
			foreign := filepath.Join(leaf, "notes.txt")
			for _, f := range []string{tmp, foreign} {
				if err := os.WriteFile(f, []byte("not an entry"), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s, err := Open(dir, n-1)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Migrated != uint64(n-c.premoved) || st.Entries != n-1 || st.Evictions != 1 {
				t.Fatalf("stats = %+v, want %d migrated, %d entries, 1 eviction", st, n-c.premoved, n-1)
			}
			if _, ok := s.Get(keys[0]); ok {
				t.Fatal("oldest entry by mtime survived the bound")
			}
			for _, p := range []string{path(keys[0]), twoLevel(keys[0])} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("evicted entry still on disk at %s", p)
				}
			}
			for _, k := range keys[1:] {
				if got, ok := s.Get(k); !ok || !bytes.Equal(got, want[k]) {
					t.Fatalf("Get(%s) = %q, %v; want %q", k[:8], got, ok, want[k])
				}
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatal("tmp leftover in a two-level directory not swept")
			}
			// Below the fanout directories only entries may remain, and
			// the foreign file's leaf directory holding only that file.
			err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
				if err != nil || p == dir || filepath.Dir(p) == dir || p == leaf || p == foreign {
					return err
				}
				if d.IsDir() || filepath.Dir(filepath.Dir(p)) != dir {
					t.Errorf("%s left below a fanout directory", p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(foreign); err != nil {
				t.Fatalf("foreign file in a two-level directory: %v", err)
			}
			s.Close()

			s2, err := Open(dir, n-1)
			if err != nil {
				t.Fatal(err)
			}
			if st := s2.Stats(); st.Migrated != 0 || st.Entries != n-1 {
				t.Fatalf("second Open stats = %+v, want 0 migrated, %d entries", st, n-1)
			}
		})
	}
}

// TestFanoutDirectoriesBounded puts 20x the bound in distinct keys: the
// tree keeps at most 256 fanout directories and nothing deeper, however
// many keys it has held.
func TestFanoutDirectoriesBounded(t *testing.T) {
	const bound = 64
	dir := t.TempDir()
	s, err := Open(dir, bound)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20*bound; i++ {
		if err := s.Put(key(fmt.Sprint("churn-", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != bound {
		t.Fatalf("Len = %d, want %d", got, bound)
	}
	if fanout, deeper := treeDirs(t, dir); fanout > 256 || deeper != 0 {
		t.Fatalf("%d fanout directories and %d deeper, want at most 256 and none", fanout, deeper)
	}
}

// treeDirs counts the directories below dir: fanout directories directly
// under it, and any deeper.
func treeDirs(tb testing.TB, dir string) (fanout, deeper int) {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == dir {
			return err
		}
		if filepath.Dir(path) == dir {
			fanout++
		} else {
			deeper++
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return fanout, deeper
}

// BenchmarkOpen re-opens a store built once outside the timer: fresh
// stores of 980 entries (perfbench serve-hits' key set) and of 4,096
// (stemsd's default -store-entries), and a 980-entry store after 20,000
// Puts of distinct keys. dirs is the directories in the tree, which is
// what Open reads.
func BenchmarkOpen(b *testing.B) {
	for _, c := range []struct {
		name        string
		bound, puts int
	}{
		{"fresh-980", 980, 980},
		{"fresh-4096", 4096, 4096},
		{"churned-980", 980, 20000},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, c.bound)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 920) // about one result document
			for i := 0; i < c.puts; i++ {
				if err := s.Put(key(fmt.Sprint(c.name, i)), payload); err != nil {
					b.Fatal(err)
				}
			}
			fanout, deeper := treeDirs(b, dir)
			for b.Loop() {
				if _, err := Open(dir, c.bound); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(1+fanout+deeper), "dirs")
		})
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", strings.Repeat("z", 64), strings.Repeat("A", 64), "../../../../etc/passwd"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted an invalid key", bad)
		}
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"covered":7}`)
	if err := s.Put(key("persist"), want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != 1 {
		t.Fatalf("reopened Len = %d, want 1", got)
	}
	got, ok := s2.Get(key("persist"))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("reopened Get = %q, %v; want %q, true", got, ok, want)
	}
}

func TestReopenRecencyFromMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	old, mid, recent := key("old"), key("mid"), key("recent")
	for i, k := range []string{old, mid, recent} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		// Filesystem mtime granularity can be coarse; set them explicitly.
		mt := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(s.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen with a bound of 2: the oldest-by-mtime entry must go.
	s2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(old); ok {
		t.Fatal("oldest entry survived a reopen beyond the bound")
	}
	for _, k := range []string{mid, recent} {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("recent entry %s evicted instead of the oldest", k[:8])
		}
	}
	if ev := s2.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestLRUEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := key("a"), key("b"), key("c")
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b"))
	if _, ok := s.Get(a); !ok { // bump a: b is now LRU
		t.Fatal("a missing")
	}
	s.Put(c, []byte("c")) // evicts b
	if _, ok := s.Get(b); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, k := range []string{a, c} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s wrongly evicted", k[:8])
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

// TestCrashBetweenTmpAndRename simulates a daemon killed mid-write: the
// temp file exists, the rename never happened. Open must sweep it and
// serve a miss, not a torn entry.
func TestCrashBetweenTmpAndRename(t *testing.T) {
	dir := t.TempDir()
	k := key("torn")
	tmp := (&Store{dir: dir}).path(k) + ".123456.tmp"
	if err := os.MkdirAll(filepath.Dir(tmp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("leftover tmp file not swept on open")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after sweeping a tmp-only dir, want 0", got)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("torn write served as an entry")
	}
}

// TestCorruptEntryDropped flips payload bytes and truncates entries on
// disk; Get must detect both via the header/CRC and drop the file.
func TestCorruptEntryDropped(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"bit-flip": func(raw []byte) []byte { raw[len(raw)-1] ^= 0xFF; return raw },
		"truncate": func(raw []byte) []byte { return raw[:len(raw)-3] },
		"emptied":  func(raw []byte) []byte { return nil },
		"bad-magic": func(raw []byte) []byte {
			copy(raw[:4], "XXXX")
			return raw
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, 16)
			if err != nil {
				t.Fatal(err)
			}
			k := key("corrupt-" + name)
			if err := s.Put(k, []byte(`{"result":"important"}`)); err != nil {
				t.Fatal(err)
			}
			path := s.path(k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("corrupt entry served")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not deleted")
			}
			st := s.Stats()
			if st.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
			}
			// A subsequent Put must restore the key.
			if err := s.Put(k, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || string(got) != "fresh" {
				t.Fatalf("re-Put after corruption: %q, %v", got, ok)
			}
		})
	}
}

func TestPutExistingRefreshesOnly(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := key("a"), key("b"), key("c")
	s.Put(a, []byte("a"))
	s.Put(b, []byte("b"))
	s.Put(a, []byte("a")) // refresh: a becomes MRU, b is LRU
	s.Put(c, []byte("c"))
	if _, ok := s.Get(b); ok {
		t.Fatal("b should have been the eviction victim after a's refresh")
	}
	if _, ok := s.Get(a); !ok {
		t.Fatal("refreshed entry a evicted")
	}
}

func TestClosed(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("x")
	s.Put(k, []byte("x"))
	s.Close()
	if err := s.Put(key("y"), []byte("y")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get after Close hit")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("g%d-i%d", g, i%10))
				if err := s.Put(k, []byte(k)); err != nil {
					done <- err
					return
				}
				if data, ok := s.Get(k); ok && string(data) != k {
					done <- fmt.Errorf("got %q want %q", data, k)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
