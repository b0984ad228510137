package camsim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a Markdown file name, with or without a directory part.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b`)

// TestDocReferencesExist scans every .go file in the repository for the
// Markdown files it names, in code and comments alike, and fails on any
// that does not exist. A name resolves against the citing file's
// directory or any directory above it up to the repository root, so
// "ARCHITECTURE.md" cited in internal/fleet resolves at the root. Hidden
// directories (VCS metadata, build caches) are skipped.
func TestDocReferencesExist(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range mdRef.FindAllString(line, -1) {
				if !resolves(filepath.Dir(path), name) {
					t.Errorf("%s:%d cites %s, which does not exist", path, i+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no .go files found; the test must run from the repository root")
	}
}

// resolves reports whether name exists relative to dir or one of its
// ancestors up to the working directory (the repository root).
func resolves(dir, name string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
		if dir == "." {
			return false
		}
		dir = filepath.Dir(dir)
	}
}
