package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write replaces the file's contents whole, and
// a failed rename — the destination is a directory — returns an error
// and leaves no temporary file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	for _, data := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, ".data-*.tmp", []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("file holds %q, want %q", got, data)
		}
	}

	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, ".data-*.tmp", []byte("x")); err == nil {
		t.Fatal("rename over a directory succeeded, want an error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "data.json" || names[1] != "target" {
		t.Fatalf("directory holds %v after the failed write, want [data.json target]", names)
	}
}
