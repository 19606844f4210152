package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// mappedFile is a read-only, shared memory map of a fully written fact
// or bitmap file. A physical page read is a copy out of the mapping into
// the caller's private buffer instead of one pread syscall per read;
// everything around the copy — the disk queue and its delay, the I/O
// counters, fault injection, retries, the breaker and the per-page
// CRC32C check — wraps it exactly as it wrapped the syscall. The mapping
// is MAP_SHARED, so it sees the file's current contents, including
// writes made through another descriptor after it was mapped.
//
// A read from an unmapped region faults the process rather than
// returning an error, so reads hold the read lock across the copy and
// close takes the write lock before unmapping: a read racing close
// either completes or fails with os.ErrClosed.
type mappedFile struct {
	mu     sync.RWMutex
	data   []byte
	closed atomic.Bool
}

// mapFile maps f read-only and closes it (the mapping keeps the pages
// reachable without the descriptor).
func mapFile(f *os.File) (*mappedFile, error) {
	m, err := mapOpen(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		m.close()
		return nil, fmt.Errorf("storage: closing %s: %w", f.Name(), cerr)
	}
	return m, err
}

// mapOpen maps the whole of f; f stays open.
func mapOpen(f *os.File) (*mappedFile, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: mapping %s: %w", f.Name(), err)
	}
	size := fi.Size()
	if int64(int(size)) != size {
		return nil, fmt.Errorf("storage: mapping %s: %d bytes exceed the address space", f.Name(), size)
	}
	m := &mappedFile{}
	if size == 0 {
		return m, nil // nothing to map (a store without rows)
	}
	m.data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: mapping %s: %w", f.Name(), err)
	}
	return m, nil
}

// readAt copies len(dst) bytes at byte offset off into dst.
func (m *mappedFile) readAt(dst []byte, off int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed.Load() {
		return os.ErrClosed
	}
	if off < 0 || off+int64(len(dst)) > int64(len(m.data)) {
		return io.ErrUnexpectedEOF
	}
	copy(dst, m.data[off:])
	return nil
}

// isClosed reports whether close has run.
func (m *mappedFile) isClosed() bool { return m.closed.Load() }

// close unmaps the file once in-flight reads finish; later calls are
// no-ops.
func (m *mappedFile) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed.Swap(true) || m.data == nil {
		return nil
	}
	err := syscall.Munmap(m.data)
	m.data = nil
	if err != nil {
		return fmt.Errorf("storage: unmapping: %w", err)
	}
	return nil
}

// errClosedRead reports a read of a closed store or bitmap file.
func errClosedRead(file string) error {
	return fmt.Errorf("storage: reading %s file: %w", file, os.ErrClosed)
}
