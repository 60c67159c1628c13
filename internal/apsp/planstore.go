package apsp

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// PlanStore persists encoded Plans in a directory, one file per
// structure fingerprint. It is the durable half of the plan cache: a
// PlanCache attached to a store (NewPlanCacheAt) falls through to disk
// on a memory miss and installs what it decodes, so a restarted process
// serves warm solves for every structure any previous process solved —
// zero symbolic rebuilds, which the serving layer asserts as
// plan_builds=0 after a restart.
//
// Files are written atomically (temp file + rename) and verified on
// read by DecodePlan's content hash, so a torn write or bit rot
// surfaces as a decode error — treated as a miss, never as a wrong
// schedule. A file is the plan's encoding followed by the fingerprint it
// was saved under, and a file whose fingerprint is not the one asked for
// (a misfiled or renamed plan, self-consistent but of another structure)
// is an error too. The store itself is stateless; concurrent readers and
// writers (even across processes) are safe because rename is atomic
// and plans for one fingerprint are deterministic, so any winner of a
// racing double-write stores identical bytes.
type PlanStore struct {
	dir string
}

// NewPlanStore opens (creating if needed) a plan directory.
func NewPlanStore(dir string) (*PlanStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("apsp: NewPlanStore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("apsp: NewPlanStore: %w", err)
	}
	return &PlanStore{dir: dir}, nil
}

func (s *PlanStore) path(fp StructureFingerprint) string {
	return filepath.Join(s.dir, fp.String()+".plan")
}

// Load reads and decodes the plan stored for fp. ok is false when no
// file exists; a file that fails to decode (truncated, corrupted, or a
// foreign format) or holds the plan of another fingerprint returns an
// error.
func (s *PlanStore) Load(fp StructureFingerprint) (pl *Plan, ok bool, err error) {
	b, err := os.ReadFile(s.path(fp))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("apsp: PlanStore.Load: %w", err)
	}
	if len(b) < len(fp) {
		return nil, false, fmt.Errorf("apsp: PlanStore.Load %s: %d bytes is shorter than a fingerprint", fp, len(b))
	}
	enc, filed := b[:len(b)-len(fp)], StructureFingerprint(b[len(b)-len(fp):])
	pl, err = DecodePlan(enc)
	if err != nil {
		return nil, false, fmt.Errorf("apsp: PlanStore.Load %s: %w", fp, err)
	}
	if filed != fp {
		return nil, false, fmt.Errorf("apsp: PlanStore.Load %s: the file holds the plan of %s", fp, filed)
	}
	return pl, true, nil
}

// Save atomically writes the plan's encoding for fp, followed by fp.
func (s *PlanStore) Save(fp StructureFingerprint, pl *Plan) error {
	tmp, err := os.CreateTemp(s.dir, "."+fp.String()+".tmp*")
	if err != nil {
		return fmt.Errorf("apsp: PlanStore.Save: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(pl.Encode(), fp[:]...)); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("apsp: PlanStore.Save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("apsp: PlanStore.Save: %w", err)
	}
	if err := os.Rename(name, s.path(fp)); err != nil {
		os.Remove(name)
		return fmt.Errorf("apsp: PlanStore.Save: %w", err)
	}
	return nil
}

// NewPlanCacheAt returns a plan cache backed by a disk store at dir: a
// memory miss falls through to disk (counting a DiskHit, not a build)
// and every fresh build is persisted (a DiskWrite), so plans survive
// the process. Disk I/O or decode failures degrade to plain cache
// behavior — the solve rebuilds symbolically — and count as DiskErrors.
func NewPlanCacheAt(dir string) (*PlanCache, error) {
	st, err := NewPlanStore(dir)
	if err != nil {
		return nil, err
	}
	c := NewPlanCache()
	c.store = st
	return c, nil
}
