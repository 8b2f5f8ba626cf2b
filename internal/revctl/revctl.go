// Package revctl is a content-addressed, revision-controlled text store.
//
// Robotron keeps config data schemas and templates in Configerator, a
// source-control repository where changes are peer-reviewed (SIGCOMM '16,
// §5.2), backs up running device configs "for quick restoration during
// catastrophic events", and archives every collected running config "in a
// revision control system to track the history of each device config"
// (§5.4.3). This package provides that substrate: per-path revision
// histories with author/message metadata, content hashes, diffs between
// revisions, and rollback to any prior revision.
package revctl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"github.com/robotron-net/robotron/internal/confdiff"
)

// Revision is one committed version of a path.
type Revision struct {
	Path    string
	Number  int    // 1-based, monotonically increasing per path
	Hash    string // hex SHA-256 of the content
	Author  string
	Message string
	// Seq orders revisions across all paths (commit sequence).
	Seq uint64
}

// Repo is an in-memory revision-controlled store, safe for concurrent use.
type Repo struct {
	mu    sync.RWMutex
	files map[string]*history
	seq   uint64
}

type history struct {
	revs     []Revision
	contents []string // parallel to revs
}

// NewRepo creates an empty repository.
func NewRepo() *Repo {
	return &Repo{files: make(map[string]*history)}
}

// Hash returns the content hash used by the repository: sha256 in hex.
// It reads content in place (a []byte conversion would copy every config
// it hashes) and allocates only the returned string.
func Hash(content string) string {
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(content), len(content)))
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:])
}

// Commit stores a new revision of path. Committing identical content to
// the current head is a no-op returning the head revision, so periodic
// config backups don't balloon history; the head's content is compared
// before anything is hashed, so such a commit hashes nothing.
func (r *Repo) Commit(path, content, author, message string) (Revision, error) {
	if path == "" {
		return Revision{}, fmt.Errorf("revctl: empty path")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.files[path]
	if !ok {
		h = &history{}
		r.files[path] = h
	}
	n := len(h.revs)
	if n > 0 && h.contents[n-1] == content {
		return h.revs[n-1], nil
	}
	r.seq++
	rev := Revision{
		Path:    path,
		Number:  n + 1,
		Hash:    Hash(content),
		Author:  author,
		Message: message,
		Seq:     r.seq,
	}
	h.revs = append(h.revs, rev)
	h.contents = append(h.contents, content)
	return rev, nil
}

// Head returns the latest revision of a path.
func (r *Repo) Head(path string) (Revision, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok || len(h.revs) == 0 {
		return Revision{}, false
	}
	return h.revs[len(h.revs)-1], true
}

// Get returns the content at a specific revision number.
func (r *Repo) Get(path string, number int) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok {
		return "", fmt.Errorf("revctl: no such path %q", path)
	}
	if number < 1 || number > len(h.revs) {
		return "", fmt.Errorf("revctl: %s has no revision %d (head is %d)", path, number, len(h.revs))
	}
	return h.contents[number-1], nil
}

// GetHead returns the latest content of a path.
func (r *Repo) GetHead(path string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok || len(h.revs) == 0 {
		return "", fmt.Errorf("revctl: no such path %q", path)
	}
	return h.contents[len(h.contents)-1], nil
}

// History returns all revisions of a path, oldest first.
func (r *Repo) History(path string) ([]Revision, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.files[path]
	if !ok {
		return nil, fmt.Errorf("revctl: no such path %q", path)
	}
	return append([]Revision(nil), h.revs...), nil
}

// Paths lists all stored paths in lexical order.
func (r *Repo) Paths() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.files))
	for p := range r.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Diff returns the unified diff between two revisions of a path.
func (r *Repo) Diff(path string, from, to int) (string, error) {
	a, err := r.Get(path, from)
	if err != nil {
		return "", err
	}
	b, err := r.Get(path, to)
	if err != nil {
		return "", err
	}
	return confdiff.Compute(a, b).Unified(3), nil
}

// Rollback commits the content of an old revision as a new head revision,
// the paper's "rollback to any prior device config upon disasters".
func (r *Repo) Rollback(path string, toNumber int, author string) (Revision, error) {
	content, err := r.Get(path, toNumber)
	if err != nil {
		return Revision{}, err
	}
	return r.Commit(path, content, author, fmt.Sprintf("rollback to revision %d", toNumber))
}
