package storage

import (
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"

	"repro/internal/frag"
)

// TestReadAfterCloseFailsWithErrClosed is the read-after-close guard: a
// closed store or bitmap file has no mapping left to copy from, so every
// read path — plain pages, pooled granules, bitmap payloads and whole
// executions — must fail with an error wrapping os.ErrClosed (never
// fault), without retries, and Close must be idempotent.
func TestReadAfterCloseFailsWithErrClosed(t *testing.T) {
	type built struct {
		store *Store
		bf    *BitmapFile
		ds    *DiskSet
	}
	cases := []struct {
		name  string
		build func(t *testing.T) built
	}{
		{"plain", func(t *testing.T) built {
			_, _, store, bf := buildStore(t, "time::month, product::group")
			return built{store: store, bf: bf}
		}},
		{"compressed", func(t *testing.T) built {
			_, _, store, bf := buildCompressedStore(t, "time::month, product::group")
			return built{store: store, bf: bf}
		}},
		{"declustered", func(t *testing.T) built {
			_, store, bf, ds := declusterStore(t, 4)
			return built{store: store, bf: bf, ds: ds}
		}},
		{"pooled", func(t *testing.T) built {
			_, _, store, bf := buildCompressedStore(t, "time::month, product::group")
			pool := NewBufPool(1 << 20)
			store.AttachPool(pool, 1)
			bf.AttachPool(pool, 1)
			return built{store: store, bf: bf}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build(t)
			ex := NewExecutor(b.store, b.bf)
			ex.Workers = 2
			id := b.store.Fragments()[0]
			desc := b.bf.Descs()[0]
			// Warm every path (and, when pooled, leave resident entries a
			// closed file must still refuse to serve).
			if _, _, err := ex.Execute(frag.Query{}); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := b.store.ReadGranule(nil, id, 0, 1); err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.bf.ReadBitmapFragment(id, desc); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := b.store.Close(); err != nil {
					t.Fatalf("store Close #%d: %v", i+1, err)
				}
				if err := b.bf.Close(); err != nil {
					t.Fatalf("bitmap file Close #%d: %v", i+1, err)
				}
			}
			var before []DiskStats
			if b.ds != nil {
				before = b.ds.Stats()
			}
			reads := map[string]func() error{
				"ReadPages": func() error {
					_, err := b.store.ReadPages(id, 0, 1)
					return err
				},
				"ReadGranule": func() error {
					_, _, _, err := b.store.ReadGranule(nil, id, 0, 1)
					return err
				},
				"ReadBitmapFragment": func() error {
					_, _, err := b.bf.ReadBitmapFragment(id, desc)
					return err
				},
				"Execute": func() error {
					_, _, err := ex.Execute(frag.Query{})
					return err
				},
			}
			if b.bf.Compressed() {
				reads["ReadCompressedFragment"] = func() error {
					_, _, err := b.bf.ReadCompressedFragment(id, desc)
					return err
				}
			}
			for name, read := range reads {
				if err := read(); !errors.Is(err, os.ErrClosed) {
					t.Errorf("%s after Close: err = %v, want one wrapping os.ErrClosed", name, err)
				}
			}
			if b.ds != nil {
				for d, st := range b.ds.Stats() {
					if st.Retries != before[d].Retries || st.BreakerTrips != before[d].BreakerTrips {
						t.Errorf("disk %d: closed reads were retried or tripped the breaker: %+v -> %+v", d, before[d], st)
					}
				}
			}
		})
	}
}

// TestCloseDuringReads races Close against readers: every read either
// returns the file's exact bytes or fails with os.ErrClosed, and once
// Close has returned every read fails.
func TestCloseDuringReads(t *testing.T) {
	_, _, store, _ := buildStore(t, "time::month, product::group")
	ids := store.Fragments()
	want := make(map[int64][]byte, len(ids))
	for _, id := range ids {
		loc, _ := store.Loc(id)
		page, err := store.ReadPages(id, 0, int(loc.Pages))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = page
	}
	const readers = 4
	var started, done sync.WaitGroup
	started.Add(readers)
	done.Add(readers)
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer done.Done()
			var buf []byte
			for i := 0; ; i++ {
				id := ids[(r+i)%len(ids)]
				loc, _ := store.Loc(id)
				var err error
				buf, err = store.ReadPagesCtx(context.Background(), buf, id, 0, int(loc.Pages))
				if i == 0 {
					started.Done()
				}
				if errors.Is(err, os.ErrClosed) {
					return
				}
				if err != nil {
					errs[r] = err
					return
				}
				if !bytes.Equal(buf, want[id]) {
					errs[r] = errors.New("read returned bytes that differ from the file")
					return
				}
			}
		}(r)
	}
	started.Wait()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
	if _, err := store.ReadPages(ids[0], 0, 1); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after Close returned: err = %v, want one wrapping os.ErrClosed", err)
	}
}
