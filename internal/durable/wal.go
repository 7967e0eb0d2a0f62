package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// File magics. Eight bytes each so torn-header detection is a single
// length check.
var (
	walMagic  = []byte("E2EWALv1")
	snapMagic = []byte("E2ESNPv1")
)

// ShardLog is one shard's durability state: an append-only WAL plus
// an atomically-replaced snapshot file. It is owned by exactly one
// shard worker (the one-writer idiom the serve package already uses
// everywhere) and is not safe for concurrent use.
type ShardLog struct {
	walPath  string
	snapPath string
	opts     Options

	f     *os.File
	size  int64 // current WAL length in bytes
	buf   []byte
	frame []byte

	unsynced int // appends since last fsync (FsyncBatch bookkeeping)
	closed   bool

	// failAfter is the test-only crash hook: when ≥ 0, any write that
	// would push the WAL past failAfter bytes writes only the prefix up
	// to it and kills the log with ErrCrashed — a deterministic
	// mid-append torn record, exactly what kill -9 leaves behind.
	failAfter int64
	dead      bool

	// Recovery output, parsed at open and consumed once via Recovered.
	recSnap    *Snapshot
	recBatches []BatchRecord
}

func shardFile(dir string, shard int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.%s", shard, ext))
}

// openShardLog loads shard i's snapshot, scans its WAL (truncating
// any torn tail in place), validates epoch contiguity of the tail
// batches, and leaves the file positioned for appends.
func openShardLog(dir string, shard int, opts Options) (*ShardLog, error) {
	sl := &ShardLog{
		walPath:   shardFile(dir, shard, "wal"),
		snapPath:  shardFile(dir, shard, "snap"),
		opts:      opts,
		failAfter: -1,
	}

	// Snapshot: absent is fine; present must decode exactly. A torn
	// snapshot cannot occur (temp + rename), so damage here is real
	// corruption, not crash debris.
	if data, err := os.ReadFile(sl.snapPath); err == nil {
		if len(data) < len(snapMagic) || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
			return nil, fmt.Errorf("%w: %s: bad snapshot magic", ErrCorrupt, sl.snapPath)
		}
		payloads, valid := scanFrames(data[len(snapMagic):])
		if len(payloads) != 1 || len(snapMagic)+valid != len(data) {
			return nil, fmt.Errorf("%w: %s: malformed snapshot framing", ErrCorrupt, sl.snapPath)
		}
		snap, err := decodeSnapshot(payloads[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sl.snapPath, err)
		}
		sl.recSnap = snap
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	f, err := os.OpenFile(sl.walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	sl.f = f
	data, err := os.ReadFile(sl.walPath)
	if err != nil {
		f.Close()
		return nil, err
	}
	if len(data) < len(walMagic) {
		// New or torn-before-the-magic WAL: rewrite the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.WriteAt(walMagic, 0); err != nil {
			f.Close()
			return nil, err
		}
		sl.size = int64(len(walMagic))
		return sl, nil
	}
	if !bytes.Equal(data[:len(walMagic)], walMagic) {
		f.Close()
		return nil, fmt.Errorf("%w: %s: bad WAL magic", ErrCorrupt, sl.walPath)
	}
	payloads, valid := scanFrames(data[len(walMagic):])
	sl.size = int64(len(walMagic) + valid)
	if sl.size < int64(len(data)) {
		// Torn tail from a crash mid-append: truncate to the last
		// complete record.
		if err := f.Truncate(sl.size); err != nil {
			f.Close()
			return nil, err
		}
	}
	var prev uint64
	if sl.recSnap != nil {
		prev = sl.recSnap.Epoch
	}
	for _, p := range payloads {
		rec, err := decodeBatch(p)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", sl.walPath, err)
		}
		if rec.Epoch <= prev && sl.recSnap != nil && rec.Epoch <= sl.recSnap.Epoch {
			// Batch predates the snapshot: the crash hit between the
			// snapshot rename and the WAL compaction. Skip it.
			continue
		}
		if rec.Epoch != prev+1 {
			f.Close()
			return nil, fmt.Errorf("%w: %s: epoch %d follows %d", ErrCorrupt, sl.walPath, rec.Epoch, prev)
		}
		prev = rec.Epoch
		sl.recBatches = append(sl.recBatches, rec)
	}
	return sl, nil
}

// Recovered hands over the state parsed at open — the snapshot (nil
// if none) and the WAL tail batches with epochs above it, in commit
// order — and releases the parse buffers. Second call returns empty.
func (sl *ShardLog) Recovered() (*Snapshot, []BatchRecord) {
	snap, batches := sl.recSnap, sl.recBatches
	sl.recSnap, sl.recBatches = nil, nil
	return snap, batches
}

// Size returns the WAL's current byte length (header included).
func (sl *ShardLog) Size() int64 { return sl.size }

// FailAfter arms the crash hook: once the WAL would grow past n
// bytes, the write is cut at n and the log dies with ErrCrashed. Test
// use only — it simulates kill -9 landing mid-append.
func (sl *ShardLog) FailAfter(n int64) { sl.failAfter = n }

// write appends raw bytes honoring the crash hook.
func (sl *ShardLog) write(b []byte) error {
	if sl.dead {
		return ErrCrashed
	}
	if sl.closed {
		return ErrClosed
	}
	if sl.failAfter >= 0 && sl.size+int64(len(b)) > sl.failAfter {
		keep := sl.failAfter - sl.size
		if keep > 0 {
			if _, err := sl.f.WriteAt(b[:keep], sl.size); err != nil {
				return err
			}
			sl.size += keep
		}
		sl.dead = true
		return ErrCrashed
	}
	if _, err := sl.f.WriteAt(b, sl.size); err != nil {
		return err
	}
	sl.size += int64(len(b))
	return nil
}

// AppendBatch appends one batch record and applies the fsync policy.
// The append is all-or-nothing from the caller's perspective: an
// error means the batch must be treated as uncommitted (and on a real
// crash, the torn bytes are truncated away at next open).
func (sl *ShardLog) AppendBatch(rec *BatchRecord) error {
	sl.buf = appendBatchPayload(sl.buf[:0], rec)
	sl.frame = appendFrame(sl.frame[:0], sl.buf)
	if err := sl.write(sl.frame); err != nil {
		return err
	}
	switch sl.opts.Policy {
	case FsyncAlways:
		return sl.f.Sync()
	case FsyncBatch:
		sl.unsynced++
		if sl.unsynced >= batchSyncEvery {
			sl.unsynced = 0
			return sl.f.Sync()
		}
	}
	return nil
}

// WriteSnapshot atomically replaces the shard's snapshot and compacts
// the WAL. Order matters: the snapshot must be durably renamed before
// the WAL shrinks, and replay tolerates the in-between state by
// skipping batches at or below the snapshot epoch.
func (sl *ShardLog) WriteSnapshot(snap *Snapshot) error {
	if sl.closed {
		return ErrClosed
	}
	if sl.dead {
		return ErrCrashed
	}
	sl.buf = appendSnapshotPayload(sl.buf[:0], snap)
	data := append(make([]byte, 0, len(snapMagic)+frameHeaderLen+len(sl.buf)), snapMagic...)
	data = appendFrame(data, sl.buf)
	if err := atomicWrite(sl.snapPath, data, sl.opts.Policy != FsyncNever); err != nil {
		return err
	}
	return sl.compact()
}

// compact truncates the WAL back to its header; every batch the WAL
// held is covered by the snapshot that just landed.
func (sl *ShardLog) compact() error {
	if err := sl.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	sl.size = int64(len(walMagic))
	sl.unsynced = 0
	if sl.opts.Policy != FsyncNever {
		return sl.f.Sync()
	}
	return nil
}

// Sync forces buffered appends to stable storage regardless of
// policy.
func (sl *ShardLog) Sync() error {
	if sl.closed || sl.dead {
		return nil
	}
	sl.unsynced = 0
	return sl.f.Sync()
}

// Close syncs (per policy) and closes the WAL file. Idempotent.
func (sl *ShardLog) Close() error {
	if sl.closed {
		return nil
	}
	sl.closed = true
	if !sl.dead && sl.opts.Policy != FsyncNever {
		sl.f.Sync()
	}
	return sl.f.Close()
}
