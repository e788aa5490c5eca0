// Package vfs mirrors the real module's filesystem seam just enough for
// the lockio fixture: lockorder matches Sync by package name, so this
// stand-in exercises the same rule.
package vfs

// File is one open file.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem surface the durability layer writes through.
type FS interface {
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	SyncDir(name string) error
}
