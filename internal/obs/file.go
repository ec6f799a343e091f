package obs

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces the file at path with data so that a reader,
// or a restart after a crash, sees either the previous file or the
// complete new one, never a torn write. The data goes to a temporary
// file created in path's directory from pattern (as os.CreateTemp
// takes it), which is synced, closed, and renamed over path. The
// temporary file is removed on every failure path.
func WriteFileAtomic(path, pattern string, data []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
