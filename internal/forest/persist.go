package forest

import (
	"encoding/binary"
	"fmt"

	"bftree/internal/core"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// forestMagic tags a forest metadata blob; the per-shard tree blobs
// inside are length-prefixed and carry core's own magic. Neither layer
// is checksummed.
const forestMagic = "BFF1"

// MarshalMeta serializes the forest for reopening: kind, shard count,
// the range separators, then each shard's own metadata blob. The
// partition rule is reconstructed from kind + separators on Open, so
// Rebuild keeps filtering after a restart.
func (f *Forest) MarshalMeta() []byte {
	buf := []byte(forestMagic)
	kind := byte(0)
	if f.hash {
		kind = 1
	}
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.trees)))
	if !f.hash {
		for _, sep := range f.seps {
			buf = binary.BigEndian.AppendUint64(buf, sep)
		}
	}
	for _, tr := range f.trees {
		blob := tr.MarshalMeta()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

// Open reopens a forest from a MarshalMeta blob against the same store
// and file. Shards with MaintenanceAuto restart their maintainers.
func Open(store *pagestore.Store, file *heapfile.File, meta []byte) (*Forest, error) {
	if len(meta) < len(forestMagic)+5 || string(meta[:len(forestMagic)]) != forestMagic {
		return nil, fmt.Errorf("%w: not a forest meta blob", core.ErrCorrupt)
	}
	off := len(forestMagic)
	hash := meta[off] == 1
	off++
	n := int(binary.BigEndian.Uint32(meta[off:]))
	off += 4
	if n < 1 {
		return nil, fmt.Errorf("%w: forest with %d shards", core.ErrCorrupt, n)
	}
	f := &Forest{store: store, file: file, hash: hash}
	if !hash {
		if len(meta) < off+8*(n-1) {
			return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
		}
		for i := 0; i < n-1; i++ {
			f.seps = append(f.seps, binary.BigEndian.Uint64(meta[off:]))
			off += 8
		}
	}
	for i := 0; i < n; i++ {
		if len(meta) < off+4 {
			f.Close()
			return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
		}
		bl := int(binary.BigEndian.Uint32(meta[off:]))
		off += 4
		if len(meta) < off+bl {
			f.Close()
			return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
		}
		tr, err := core.OpenPartition(store, file, meta[off:off+bl], f.partition(i, n))
		if err != nil {
			f.Close()
			return nil, err
		}
		off += bl
		f.trees = append(f.trees, tr)
	}
	f.fieldIdx = f.trees[0].FieldIndex()
	return f, nil
}
