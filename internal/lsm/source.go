package lsm

import (
	"fmt"

	"elsm/internal/blockcache"
	"elsm/internal/sstable"
)

// storeSource is the engine's BlockSource. It routes data-block reads along
// one of the three read paths the paper evaluates:
//
//   - mmap (eLSM-P2-mmap, §5.5.1): data is read directly from the untrusted
//     file view — no OCall, no buffering, no counted copy;
//   - buffered (eLSM-P2-buffer / eLSM-P1): hits come from the block cache
//     (inside or outside the enclave — the cache itself declares its
//     in-enclave accesses when placed inside); misses pay an OCall plus the
//     boundary copy, and for P1 the block decrypt (real AES work);
//   - direct (no cache configured): every read pays the miss path.
//
// Compaction pins whole-file views (step m1: "load all input files to
// untrusted memory"), after which streaming reads are direct slices.
type storeSource struct {
	s *Store
}

var _ sstable.BlockSource = (*storeSource)(nil)

// ReadBlock implements sstable.BlockSource.
func (src *storeSource) ReadBlock(fileNum uint64, blockIdx int, off, length int64) ([]byte, error) {
	s := src.s
	// Snapshot the view pointers under fileMu: compaction pins/unpins run
	// concurrently with readers now that the merge phase is lock-free.
	s.fileMu.RLock()
	of, ok := s.files[fileNum]
	var pinnedView, mmapView []byte
	if ok {
		pinnedView, mmapView = of.pinned, of.view
	}
	s.fileMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("lsm: read block of unknown file %d", fileNum)
	}

	// Compaction-pinned view (direct streaming from untrusted memory), or
	// else the mmap read path.
	view := pinnedView
	if view == nil {
		view = mmapView
	}
	if view != nil {
		// The host hands out the view long after sstable.Open checked the
		// index against the file: it may have truncated the file since.
		if off < 0 || length < 0 || length > int64(len(view))-off {
			return nil, fmt.Errorf("%w: block %d of file %d at [%d,+%d) lies outside its %d-byte view",
				sstable.ErrBadTable, blockIdx, fileNum, off, length, len(view))
		}
		return src.openBlock(fileNum, blockIdx, view[off:off+length])
	}

	cache := s.opts.Cache
	key := blockcache.Key{FileNum: fileNum, BlockIdx: blockIdx}
	if cache != nil {
		if data, ok := cache.Get(key); ok {
			if !cache.Inside() {
				// P2 buffered hit: the enclave reads the block from
				// untrusted memory, copying the touched bytes in.
				s.enclave.Copy(int(length))
			}
			return data, nil
		}
	}
	// Miss: exit the enclave to read the block from the file system.
	raw := make([]byte, length)
	var rerr error
	s.ocall(func() {
		_, rerr = of.file.ReadAt(raw, off)
	})
	if rerr != nil {
		return nil, fmt.Errorf("lsm: read block %d of file %d: %w", blockIdx, fileNum, rerr)
	}
	data, err := src.openBlock(fileNum, blockIdx, raw)
	if err != nil {
		return nil, err
	}
	if cache != nil {
		cache.Put(key, data)
	} else {
		// No buffer at all: the block still crosses into the enclave.
		s.enclave.Copy(len(data))
	}
	return data, nil
}

// openBlock applies the block transform (P1 decrypt+verify — real crypto
// work performed inside the enclave).
func (src *storeSource) openBlock(fileNum uint64, blockIdx int, data []byte) ([]byte, error) {
	tr := src.s.opts.Transform
	if tr == nil {
		return data, nil
	}
	out, err := tr.Open(sstable.BlockID(fileNum, blockIdx), data)
	if err != nil {
		return nil, fmt.Errorf("lsm: block %d/%d: %w", fileNum, blockIdx, err)
	}
	return out, nil
}

// pinViews bulk-loads the given files into untrusted memory for compaction
// streaming (one OCall per file, §5.3 step m1).
func (s *Store) pinViews(fileNums []uint64) {
	for _, fn := range fileNums {
		s.fileMu.RLock()
		of, ok := s.files[fn]
		s.fileMu.RUnlock()
		if !ok {
			continue
		}
		var view []byte
		s.ocall(func() { view = of.file.Bytes() })
		s.fileMu.Lock()
		of.pinned = view
		s.fileMu.Unlock()
	}
}

// unpinViews drops compaction views.
func (s *Store) unpinViews(fileNums []uint64) {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	for _, fn := range fileNums {
		if of, ok := s.files[fn]; ok {
			of.pinned = nil
		}
	}
}
