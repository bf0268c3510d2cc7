package kv

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// VFS is the seam between the storage layer and the disk. Every file
// operation the LSM performs — WAL appends, SSTable builds and reads,
// manifest renames, directory fsyncs — goes through this interface, so
// tests (and the CI fault-matrix job) can slide a fault-injecting
// implementation underneath and make disk failures reproducible.
type VFS interface {
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// ReadFile returns the whole contents of path.
	ReadFile(path string) ([]byte, error)
	// WriteFile writes data to path, truncating any existing file.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Remove deletes path.
	Remove(path string) error
	// RemoveAll deletes path and everything under it.
	RemoveAll(path string) error
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// Stat describes path.
	Stat(path string) (os.FileInfo, error)
	// MkdirAll creates path and missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Glob returns the paths matching pattern.
	Glob(pattern string) ([]string, error)
	// SyncDir fsyncs the directory at path, making the directory
	// entries of files created, renamed or removed inside it durable.
	SyncDir(path string) error
}

// File is the subset of *os.File the storage layer uses.
type File interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Close() error
}

// OSFS is the production VFS: a thin veneer over package os.
type OSFS struct{}

func (OSFS) Create(path string) (File, error) { return os.Create(path) }
func (OSFS) Open(path string) (File, error)   { return os.Open(path) }
func (OSFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (OSFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}
func (OSFS) Rename(oldPath, newPath string) error   { return os.Rename(oldPath, newPath) }
func (OSFS) Remove(path string) error               { return os.Remove(path) }
func (OSFS) RemoveAll(path string) error            { return os.RemoveAll(path) }
func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }
func (OSFS) Stat(path string) (os.FileInfo, error)  { return os.Stat(path) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// SyncDir fsyncs a directory so renames and creates inside it survive a
// crash. Filesystems that reject fsync on directories (some network
// mounts) report EINVAL; that is the platform telling us the sync is
// meaningless there, not a durability bug we can act on, so it is not
// treated as an error.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// defaultFS returns the VFS a store uses when Options.FS is nil: the
// real filesystem, optionally wrapped in a global low-probability fault
// injector when JUST_FAULT_READ_PROB is set (the CI fault-matrix smoke
// job). The injected faults are transient SSTable read bit-flips —
// exactly the class the per-block checksums detect and the read path
// cures by re-reading — so the whole test suite must stay green under
// them; any checksum hole instead surfaces as served garbage.
func defaultFS() VFS {
	if v := os.Getenv("JUST_FAULT_READ_PROB"); v != "" {
		if p, err := strconv.ParseFloat(v, 64); err == nil && p > 0 {
			f := NewFaultFS(OSFS{}, 1)
			f.Add(FaultRule{Pattern: "*.sst", Op: OpRead, Kind: FaultBitFlip, Prob: p})
			return f
		}
	}
	return OSFS{}
}
