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

// MarshalMeta serializes the forest for reopening: shard count, the
// separators, then each shard's own metadata blob. The partitions are
// reconstructed from the separators on Open, so Rebuild keeps filtering
// after a restart.
func (f *Forest) MarshalMeta() []byte {
	buf := []byte(forestMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.trees)))
	for _, sep := range f.seps {
		buf = binary.BigEndian.AppendUint64(buf, sep)
	}
	for _, tr := range f.trees {
		blob := tr.MarshalMeta()
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	return buf
}

// Open reopens a forest from a MarshalMeta blob against the same store
// and file. Shards with MaintenanceAuto restart their maintainers. A
// blob whose separators do not rise strictly from above 0, or that
// carries bytes after its last shard blob, is ErrCorrupt: New never
// writes one, and such separators would route keys to shards that do
// not hold them.
func Open(store *pagestore.Store, file *heapfile.File, meta []byte) (*Forest, error) {
	if len(meta) < len(forestMagic)+4 || string(meta[:len(forestMagic)]) != forestMagic {
		return nil, fmt.Errorf("%w: not a forest meta blob", core.ErrCorrupt)
	}
	off := len(forestMagic)
	n := int(binary.BigEndian.Uint32(meta[off:]))
	off += 4
	if n < 1 {
		return nil, fmt.Errorf("%w: forest with %d shards", core.ErrCorrupt, n)
	}
	if len(meta) < off+8*(n-1) {
		return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
	}
	f := &Forest{store: store, file: file}
	prev := uint64(0)
	for i := 0; i < n-1; i++ {
		sep := binary.BigEndian.Uint64(meta[off:])
		off += 8
		if sep <= prev {
			return nil, fmt.Errorf("%w: forest separator %d is %d, not above %d",
				core.ErrCorrupt, i, sep, prev)
		}
		f.seps = append(f.seps, sep)
		prev = sep
	}
	// Split the shard blobs before opening any shard, so a malformed
	// layout starts no maintainer.
	blobs := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(meta) < off+4 {
			return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
		}
		bl := int(binary.BigEndian.Uint32(meta[off:]))
		off += 4
		if len(meta) < off+bl {
			return nil, fmt.Errorf("%w: forest meta truncated", core.ErrCorrupt)
		}
		blobs = append(blobs, meta[off:off+bl])
		off += bl
	}
	if off != len(meta) {
		return nil, fmt.Errorf("%w: %d bytes after the last shard blob", core.ErrCorrupt, len(meta)-off)
	}
	for i, blob := range blobs {
		tr, err := core.OpenPartition(store, file, blob, f.partition(i))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.trees = append(f.trees, tr)
	}
	f.fieldIdx = f.trees[0].FieldIndex()
	return f, nil
}
