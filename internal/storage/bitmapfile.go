package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/bitmap"
	"repro/internal/frag"
	"repro/internal/schema"
)

const bitmapFileName = "bitmaps.dat"

// BitmapDesc identifies one stored bitmap, in the fixed enumeration order
// of the surviving bitmaps (Section 4.2). It is the shared frag.BitmapRef
// enumeration, so the on-disk file and the delta segments agree on what
// is stored and in which order.
type BitmapDesc = frag.BitmapRef

// BitmapFile stores the surviving bitmap fragments of a fragmented fact
// table, partitioned congruently with the fact fragments: all bitmap
// fragments of fragment i are stored together, each padded to whole pages
// (the paper's allocation unit). With Compress enabled, fragments are
// WAH-compressed before page padding (the space reduction the paper
// mentions in Section 3.2), which typically shrinks each fragment to its
// one-page minimum.
type BitmapFile struct {
	star     *schema.Star
	spec     *frag.Spec
	icfg     frag.IndexConfig
	pageSize int
	// file maps the bitmap file once it is fully written; every physical
	// payload read copies out of it (see mmap.go).
	file  *mappedFile
	descs []BitmapDesc
	// descIdx maps each stored descriptor to its position in descs.
	descIdx map[BitmapDesc]int
	rowsOf  map[int64]int32
	// pageOff[fragID] holds the prefix sums of the page counts of the
	// fragment's bitmap block: bitmap i occupies the absolute pages
	// [pageOff[fragID][i], pageOff[fragID][i+1]) (equal-sized when
	// uncompressed), so a payload read locates its pages in O(1).
	pageOff    map[int64][]int64
	compressed bool
	layouts    []*bitmap.Layout
	skipBits   []int // per dim: number of eliminated leading bits (encoded)
	// ioDelay is an optional simulated disk access time (ns) added to
	// every physical read on the single implicit disk (see SetIODelay).
	// Atomic: read by N fragment workers while SetIODelay may store.
	ioDelay atomic.Int64
	// disks and placement decluster bitmap reads across per-disk
	// serialized queues when non-nil (see Decluster in disk.go).
	disks     *DiskSet
	placement alloc.Placement
	// pool, when non-nil, caches bitmap payload reads under poolEpoch
	// (see AttachPool on Store; the pool is shared with the fact store).
	pool      *BufPool
	poolEpoch int64
	// sums holds one CRC32C per bitmap-file page, indexed by absolute page
	// number — computed at build and verified on every physical read. The
	// bitmap file is always rebuilt alongside its store, so the table lives
	// in memory only.
	sums []uint32
}

// AttachPool routes this file's payload reads through a shared buffer
// pool, keying its entries under the given serving epoch. Must be called
// before queries run; a nil pool detaches.
func (bf *BitmapFile) AttachPool(p *BufPool, epoch int64) {
	bf.pool, bf.poolEpoch = p, epoch
}

// SetIODelay adds a simulated disk access time to every bitmap fragment
// read — the counterpart of Store.SetIODelay for the bitmap file. Zero
// (the default) disables it. Safe to call concurrently with running
// queries. On a declustered file the delay is applied to every disk of
// the shared set.
func (bf *BitmapFile) SetIODelay(d time.Duration) {
	if bf.disks != nil {
		bf.disks.SetIODelay(d)
		return
	}
	bf.ioDelay.Store(int64(d))
}

// survivors enumerates the surviving bitmaps of a fragmentation under an
// index configuration, in a deterministic order — the shared
// frag.Survivors enumeration.
func survivors(_ *schema.Star, spec *frag.Spec, icfg frag.IndexConfig) ([]BitmapDesc, []*bitmap.Layout, []int) {
	return frag.Survivors(spec, icfg)
}

// BuildBitmaps constructs and persists the surviving bitmap fragments for
// an already-built fact store, uncompressed.
func BuildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig) (*BitmapFile, error) {
	return buildBitmaps(dirPath, s, icfg, false)
}

// BuildCompressedBitmaps is BuildBitmaps with WAH compression applied to
// every bitmap fragment before page padding.
func BuildCompressedBitmaps(dirPath string, s *Store, icfg frag.IndexConfig) (*BitmapFile, error) {
	return buildBitmaps(dirPath, s, icfg, true)
}

func buildBitmaps(dirPath string, s *Store, icfg frag.IndexConfig, compress bool) (*BitmapFile, error) {
	star := s.star
	if len(icfg) != len(star.Dims) {
		return nil, fmt.Errorf("storage: index config has %d entries for %d dimensions", len(icfg), len(star.Dims))
	}
	descs, layouts, skip := survivors(star, s.spec, icfg)
	bf := &BitmapFile{
		star:       star,
		spec:       s.spec,
		icfg:       icfg,
		pageSize:   s.pageSize,
		descs:      descs,
		descIdx:    make(map[BitmapDesc]int, len(descs)),
		rowsOf:     make(map[int64]int32, len(s.order)),
		pageOff:    make(map[int64][]int64, len(s.order)),
		compressed: compress,
		layouts:    layouts,
		skipBits:   skip,
	}
	for i, d := range descs {
		bf.descIdx[d] = i
	}
	f, err := os.Create(filepath.Join(dirPath, bitmapFileName))
	if err != nil {
		return nil, err
	}

	var pageOff int64
	keysPerDim := make([][]int32, len(star.Dims))
	for _, id := range s.order {
		locFact := s.dir[id]
		rows := int(locFact.Rows)
		bf.rowsOf[id] = locFact.Rows
		offs := make([]int64, 0, len(descs)+1)
		// Materialise the fragment's dimension keys.
		for d := range keysPerDim {
			keysPerDim[d] = keysPerDim[d][:0]
		}
		err := s.ScanFragment(id, func(tp Tuple) {
			for d := range tp.Keys {
				keysPerDim[d] = append(keysPerDim[d], int32(tp.Keys[d]))
			}
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		// Build and write each surviving bitmap fragment, page-padded.
		for _, desc := range descs {
			bs := buildBitmapFragment(star, layouts, desc, keysPerDim[desc.Dim])
			var payload []byte
			if compress {
				payload = encodeCompressed(bitmap.Compress(bs))
			} else {
				payload = make([]byte, (rows+7)/8)
				packBits(bs, payload)
			}
			pages := (len(payload) + bf.pageSize - 1) / bf.pageSize
			if pages < 1 {
				pages = 1
			}
			buf := make([]byte, pages*bf.pageSize)
			copy(buf, payload)
			for p := 0; p < pages; p++ {
				bf.sums = append(bf.sums, pageCRC(buf[p*bf.pageSize:(p+1)*bf.pageSize]))
			}
			if _, err := f.Write(buf); err != nil {
				f.Close()
				return nil, fmt.Errorf("storage: writing bitmap pages of fragment %d: %w", id, err)
			}
			offs = append(offs, pageOff)
			pageOff += int64(pages)
		}
		bf.pageOff[id] = append(offs, pageOff)
	}
	if bf.file, err = mapFile(f); err != nil {
		return nil, err
	}
	return bf, nil
}

// encodeCompressed serialises a WAH bitmap: uint32 bit length, uint32 word
// count, then the words, little endian.
func encodeCompressed(c *bitmap.Compressed) []byte {
	words := c.Words()
	out := make([]byte, 8+8*len(words))
	putU32(out, uint32(c.Len()))
	putU32(out[4:], uint32(len(words)))
	for i, w := range words {
		putU64(out[8+8*i:], w)
	}
	return out
}

// decodeCompressedInto deserialises a WAH bitmap into dst, reusing its
// word storage.
func decodeCompressedInto(dst *bitmap.Compressed, buf []byte) {
	n := int(getU32(buf))
	k := int(getU32(buf[4:]))
	words := dst.ResetWords(n, k)
	for i := range words {
		words[i] = getU64(buf[8+8*i:])
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}
func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// buildBitmapFragment computes one bitmap over the fragment's rows.
func buildBitmapFragment(star *schema.Star, layouts []*bitmap.Layout, desc BitmapDesc, keys []int32) *bitmap.Bitset {
	dim := &star.Dims[desc.Dim]
	bs := bitmap.New(len(keys))
	if desc.Simple {
		for i, k := range keys {
			if dim.Ancestor(dim.Leaf(), int(k), desc.Level) == desc.Member {
				bs.Set(i)
			}
		}
		return bs
	}
	l := layouts[desc.Dim]
	shift := uint(l.TotalBits() - 1 - desc.Bit)
	for i, k := range keys {
		if l.Encode(int(k))>>shift&1 == 1 {
			bs.Set(i)
		}
	}
	return bs
}

// packBits serialises a bitset into buf, 8 rows per byte, LSB first.
func packBits(bs *bitmap.Bitset, buf []byte) {
	bs.ForEach(func(i int) {
		buf[i/8] |= 1 << uint(i%8)
	})
}

// unpackBitsInto deserialises n bits from buf into bs, reusing its
// storage, 8 bits per byte byte-wise rather than bit probing.
func unpackBitsInto(bs *bitmap.Bitset, buf []byte, n int) {
	bs.Reinit(n)
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		if b := buf[i]; b != 0 {
			bs.OrByte(i*8, b)
		}
	}
}

// NumBitmaps returns the number of surviving bitmaps stored per fragment.
func (bf *BitmapFile) NumBitmaps() int { return len(bf.descs) }

// Descs returns the stored bitmap enumeration.
func (bf *BitmapFile) Descs() []BitmapDesc { return bf.descs }

// descIndex locates a descriptor's position in the enumeration (-1 when
// not stored).
func (bf *BitmapFile) descIndex(want BitmapDesc) int {
	if i, ok := bf.descIdx[want]; ok {
		return i
	}
	return -1
}

// Compressed reports whether the file stores WAH-compressed fragments.
func (bf *BitmapFile) Compressed() bool { return bf.compressed }

// TotalPages returns the total stored bitmap pages — the quantity WAH
// compression reduces.
func (bf *BitmapFile) TotalPages() int64 { return int64(len(bf.sums)) }

// readPayload reads the raw page-padded payload of bitmap di of the
// fragment, consulting the buffer pool first when one is attached. data
// is the payload to decode from; scratch is the caller's reusable buffer
// (grown when the unpooled read needed more room — store it back). When
// ent is non-nil the data is pool-resident and pinned: the caller must
// ent.Unpin() after decoding (the decode copies, so the pin is short).
// Pool hit/miss accounting folds into st when non-nil.
func (bf *BitmapFile) readPayload(ctx context.Context, buf []byte, fragID int64, di int, st *IOStats) (data, scratch []byte, pages int, ent *PoolEntry, err error) {
	if bf.file.isClosed() {
		return nil, buf, 0, nil, errClosedRead("bitmaps")
	}
	offs, ok := bf.pageOff[fragID]
	if !ok {
		return nil, buf, 0, nil, fmt.Errorf("storage: fragment %d has no bitmaps", fragID)
	}
	off := offs[di]
	pages = int(offs[di+1] - off)
	n := pages * bf.pageSize

	if bf.pool != nil {
		key := PoolKey{Epoch: bf.poolEpoch, File: PoolBitmap, Frag: fragID, Off: int32(di), Len: int32(pages)}
		if e := bf.pool.Get(key); e != nil {
			if bf.disks != nil {
				bf.disks.notePoolHit(bf.placement.BitmapDisk(fragID, di), pages)
			}
			if st != nil {
				st.PoolHits++
				st.PoolBytes += int64(n)
			}
			return e.Data(), buf, pages, e, nil
		}
		if st != nil {
			st.PoolMisses++
		}
		// Miss: read into a fresh buffer the pool can own.
		fresh := make([]byte, n)
		if err := bf.readPayloadAt(ctx, fresh, off, fragID, di, pages); err != nil {
			return nil, buf, 0, nil, err
		}
		if e := bf.pool.Add(key, fresh); e != nil {
			return e.Data(), buf, pages, e, nil
		}
		return fresh, buf, pages, nil, nil // pool rejected: serve privately
	}

	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if err := bf.readPayloadAt(ctx, buf, off, fragID, di, pages); err != nil {
		return nil, buf, 0, nil, err
	}
	return buf, buf, pages, nil, nil
}

// readPayloadAt performs the physical read of a payload into dst — one
// I/O through the disk queue (or the implicit single disk's delay),
// retried per the disk set's retry policy and verified against the
// per-page checksum table (see fault.go).
func (bf *BitmapFile) readPayloadAt(ctx context.Context, dst []byte, off int64, fragID int64, di, pages int) error {
	byteOff := off * int64(bf.pageSize)
	read := func() error {
		if bf.disks == nil {
			if d := bf.ioDelay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		if err := bf.file.readAt(dst, byteOff); err != nil {
			return fmt.Errorf("storage: reading bitmap %d of fragment %d at offset %d: %w", di, fragID, byteOff, err)
		}
		return nil
	}
	var verify func() error
	if bf.sums != nil {
		verify = func() error {
			for i := 0; i < pages; i++ {
				page := dst[i*bf.pageSize : (i+1)*bf.pageSize]
				want := bf.sums[off+int64(i)]
				if got := pageCRC(page); got != want {
					return &FaultError{
						File: "bitmaps", Frag: fragID, Offset: byteOff + int64(i*bf.pageSize), Kind: FaultChecksum,
						Err: fmt.Errorf("page %d crc32c %08x != stored %08x", off+int64(i), got, want),
					}
				}
			}
			return nil
		}
	}
	site := faultSite{file: "bitmaps", frag: fragID, off: byteOff}
	disk := 0
	if bf.disks != nil {
		disk = bf.placement.BitmapDisk(fragID, di)
	}
	corrupt := func() { corruptPages(dst, bf.pageSize) }
	return retryRead(ctx, bf.disks, disk, pages, site, read, corrupt, verify)
}

// ReadBitmapFragment reads (one physical I/O per page run) the bitmap
// fragment identified by desc for the given fact fragment. It returns the
// bitset and the number of pages read.
func (bf *BitmapFile) ReadBitmapFragment(fragID int64, desc BitmapDesc) (*bitmap.Bitset, int, error) {
	bs, _, pages, err := bf.readBitmapInto(context.Background(), nil, nil, fragID, desc, nil)
	return bs, pages, err
}

// readBitmapInto is ReadBitmapFragment decoding into dst (allocated when
// nil) with buf as the reusable page buffer and st receiving the pool
// accounting (nil allowed). It returns the bitset, the grown page buffer
// and the page count. Pool pins are released before returning — the
// decode copies the payload into dst.
func (bf *BitmapFile) readBitmapInto(ctx context.Context, dst *bitmap.Bitset, buf []byte, fragID int64, desc BitmapDesc, st *IOStats) (*bitmap.Bitset, []byte, int, error) {
	di := bf.descIndex(desc)
	if di < 0 {
		return nil, buf, 0, fmt.Errorf("storage: bitmap %+v not stored (eliminated by the fragmentation?)", desc)
	}
	data, buf, pages, ent, err := bf.readPayload(ctx, buf, fragID, di, st)
	if err != nil {
		return nil, buf, 0, err
	}
	if dst == nil {
		dst = bitmap.New(0)
	}
	if bf.compressed {
		var c bitmap.Compressed
		decodeCompressedInto(&c, data)
		dst = c.DecompressInto(dst)
	} else {
		unpackBitsInto(dst, data, int(bf.rowsOf[fragID]))
	}
	if ent != nil {
		ent.Unpin()
	}
	return dst, buf, pages, nil
}

// ReadCompressedFragment reads the bitmap fragment identified by desc and
// returns its on-page WAH words directly, without decompressing — the
// entry point of the compressed execution fast path. The file must have
// been built with compression.
func (bf *BitmapFile) ReadCompressedFragment(fragID int64, desc BitmapDesc) (*bitmap.Compressed, int, error) {
	c, _, pages, err := bf.readCompressedInto(context.Background(), nil, nil, fragID, desc, nil)
	return c, pages, err
}

// readCompressedInto is ReadCompressedFragment decoding into dst
// (allocated when nil) with buf as the reusable page buffer and st
// receiving the pool accounting (nil allowed). Pool pins are released
// before returning — the decode copies the words into dst.
func (bf *BitmapFile) readCompressedInto(ctx context.Context, dst *bitmap.Compressed, buf []byte, fragID int64, desc BitmapDesc, st *IOStats) (*bitmap.Compressed, []byte, int, error) {
	if !bf.compressed {
		return nil, buf, 0, fmt.Errorf("storage: bitmap file is not compressed")
	}
	di := bf.descIndex(desc)
	if di < 0 {
		return nil, buf, 0, fmt.Errorf("storage: bitmap %+v not stored (eliminated by the fragmentation?)", desc)
	}
	data, buf, pages, ent, err := bf.readPayload(ctx, buf, fragID, di, st)
	if err != nil {
		return nil, buf, 0, err
	}
	if dst == nil {
		dst = &bitmap.Compressed{}
	}
	decodeCompressedInto(dst, data)
	if ent != nil {
		ent.Unpin()
	}
	return dst, buf, pages, nil
}

// Close unmaps the bitmap file once in-flight reads finish. It is
// idempotent; later reads fail with an error wrapping os.ErrClosed.
func (bf *BitmapFile) Close() error { return bf.file.close() }
