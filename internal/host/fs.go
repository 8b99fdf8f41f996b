package host

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/sim"
)

// FileAttr is a bitmask of Windows-style file attributes.
type FileAttr uint8

// File attributes used by the modelled malware (hidden droppers, system
// files).
const (
	AttrHidden FileAttr = 1 << iota
	AttrSystem
	AttrReadOnly
)

// LazyContent describes file content that can be generated on demand: a
// captured RNG stream position, a length, and whether the printable-
// document transform applies. Generation is a pure function of the
// descriptor, so a lazy file read observes exactly the bytes an eager
// write at seeding time would have stored (DESIGN.md §9).
type LazyContent struct {
	Seed uint64 // sim RNG state the content stream starts from
	Len  int    // content length in bytes
	Doc  bool   // apply the printable-document transform
}

// Generate materialises the full content.
func (lc LazyContent) Generate() []byte {
	data := sim.NewRNG(lc.Seed).Bytes(lc.Len)
	if lc.Doc {
		docTransform(data)
	}
	return data
}

// generatePrefix materialises only the first n bytes (n is clamped to
// Len). Wipe-artefact checks need two bytes of 30,000 hosts' documents;
// generating whole files for that would forfeit laziness.
func (lc LazyContent) generatePrefix(n int) []byte {
	if n > lc.Len {
		n = lc.Len
	}
	data := sim.NewRNG(lc.Seed).Bytes(n)
	if lc.Doc {
		docTransform(data)
	}
	return data
}

// docTransform makes generated content partially printable so strings
// extraction and entropy analysis see document-like structure. It is
// prefix-stable: transforming the first n bytes of a stream equals the
// first n bytes of the transformed stream.
func docTransform(data []byte) {
	for j := 0; j < len(data); j += 2 {
		data[j] = byte('a' + int(data[j])%26)
	}
}

// FileNode is one file in a simulated filesystem. Content lives in one of
// three states:
//
//   - owned: data holds bytes this node owns (the classic eager write);
//   - shared: data aliases an immutable buffer owned elsewhere (a
//     malware image cache); it is copied on first mutation;
//   - lazy: content has not been generated yet; a LazyContent descriptor
//     produces it deterministically on first read.
//
// Readers use Bytes (or Prefix for a cheap peek); writers that mutate in
// place use MutableBytes. Replacing content goes through FS.Write as
// always.
//
// A node is the file at its path for as long as the file exists there,
// as a Windows handle is: a write to an existing path replaces the
// content, attributes and time of the node already there, so a
// *FileNode taken before the write sees the new content. Delete and
// Rename end that; a later write to the old path makes a new node.
type FileNode struct {
	Path    string // original-case cleaned path
	Attr    FileAttr
	ModTime time.Time

	data   []byte
	shared bool
	lazy   *LazyContent
}

// Bytes returns the file content, generating it on first read if the
// node is lazy. Callers must treat the result as read-only: it may alias
// a buffer shared across the whole fleet. Use MutableBytes to mutate.
func (f *FileNode) Bytes() []byte {
	if f.lazy != nil {
		f.data = f.lazy.Generate()
		f.lazy = nil
	}
	return f.data
}

// MutableBytes returns content this node exclusively owns, materialising
// lazy content and copying shared content first (the copy-on-write step).
func (f *FileNode) MutableBytes() []byte {
	b := f.Bytes()
	if f.shared {
		b = append([]byte(nil), b...)
		f.data = b
		f.shared = false
	}
	return b
}

// Prefix returns the first n bytes of the content (fewer if the file is
// shorter) without materialising or caching a lazy node's full content.
func (f *FileNode) Prefix(n int) []byte {
	if f.lazy != nil {
		return f.lazy.generatePrefix(n)
	}
	if n > len(f.data) {
		n = len(f.data)
	}
	return f.data[:n]
}

// Materialized reports whether the content bytes exist in memory.
func (f *FileNode) Materialized() bool { return f.lazy == nil }

// Size returns the file length in bytes. It never materialises content.
func (f *FileNode) Size() int {
	if f.lazy != nil {
		return f.lazy.Len
	}
	return len(f.data)
}

// Ext returns the lower-case extension without the dot ("docx"), or "".
func (f *FileNode) Ext() string {
	base := f.Path
	if i := strings.LastIndexByte(base, '\\'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i >= 0 && i+1 < len(base) {
		return strings.ToLower(base[i+1:])
	}
	return ""
}

// FS is a case-insensitive, backslash-separated path store, the way the
// samples see a Windows volume. Directories exist implicitly when they
// contain files and explicitly after Mkdir.
type FS struct {
	files map[string]*FileNode // key: lower-cased clean path
	dirs  map[string]string    // key: lower-cased clean path -> original case
}

// NewFS returns an empty filesystem with the standard Windows skeleton.
func NewFS() *FS {
	return &FS{files: make(map[string]*FileNode), dirs: maps.Clone(skeletonDirs)}
}

// skeletonDirs is the directory map of the standard Windows skeleton,
// built once; every NewFS starts from a copy.
var skeletonDirs = func() map[string]string {
	fs := &FS{dirs: make(map[string]string)}
	for _, d := range []string{
		`C:`, `C:\Windows`, `C:\Windows\System32`, `C:\Windows\System32\drivers`,
		`C:\Users`, `C:\Program Files`,
	} {
		fs.Mkdir(d)
	}
	return fs.dirs
}()

// SystemDir is the simulated %system% directory the paper's droppers copy
// themselves into.
const SystemDir = `C:\Windows\System32`

// CleanPath normalizes a path: forward slashes become backslashes, repeated
// separators collapse, trailing separators are trimmed.
func CleanPath(p string) string {
	p = strings.ReplaceAll(p, "/", `\`)
	for strings.Contains(p, `\\`) {
		p = strings.ReplaceAll(p, `\\`, `\`)
	}
	return strings.TrimSuffix(p, `\`)
}

func fsKey(p string) string { return strings.ToLower(CleanPath(p)) }

// keyBuf sizes the stack buffer lookups lower-case a key into; a longer
// key is still found, in a buffer append grows on the heap.
const keyBuf = 128

// AppendLower appends strings.ToLower(s) to dst. ASCII is lowered byte
// by byte, which is all strings.ToLower does to ASCII, so a key built in
// a stack buffer and used as m[string(key)] allocates nothing. Any other
// s goes through strings.ToLower itself.
func AppendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// Errors returned by filesystem operations.
var (
	ErrNotFound = errors.New("host: file not found")
	ErrReadOnly = errors.New("host: file is read-only")
)

// put writes node's content, attributes and time at path (honouring the
// read-only refusal) and registers parent directories. A path that
// exists keeps its node and its map key: the node takes the new fields,
// the path's case included.
func (fs *FS) put(path string, node FileNode) error {
	clean := CleanPath(path)
	node.Path = clean
	var buf [keyBuf]byte
	lower := AppendLower(buf[:0], clean)
	if f, ok := fs.files[string(lower)]; ok {
		if f.Attr&AttrReadOnly != 0 {
			return fmt.Errorf("%w: %s", ErrReadOnly, clean)
		}
		*f = node
		return nil
	}
	key := string(lower)
	f := new(FileNode)
	*f = node
	fs.files[key] = f
	fs.mkParents(clean, key)
	return nil
}

// Write creates or replaces a file. Parent directories are created
// implicitly. Read-only files refuse replacement. The data is copied, so
// the caller keeps ownership of its slice.
func (fs *FS) Write(path string, data []byte, attr FileAttr, modTime time.Time) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return fs.put(path, FileNode{data: cp, Attr: attr, ModTime: modTime})
}

// WriteShared creates or replaces a file whose content aliases data
// without copying. The caller promises the buffer is immutable for the
// rest of the run — the contract malware image caches satisfy, letting a
// 30,000-host fleet hold one copy of each dropped image. In-place
// mutation through MutableBytes copies first, so sharers never observe
// each other.
func (fs *FS) WriteShared(path string, data []byte, attr FileAttr, modTime time.Time) error {
	return fs.put(path, FileNode{data: data, shared: true, Attr: attr, ModTime: modTime})
}

// WriteLazy creates or replaces a file whose content is generated from
// the descriptor on first read. Until then the node costs only its
// metadata, which is what makes fleet-scale document seeding cheap.
func (fs *FS) WriteLazy(path string, lc LazyContent, attr FileAttr, modTime time.Time) error {
	if lc.Len < 0 {
		return fmt.Errorf("host: negative lazy content length %d for %s", lc.Len, path)
	}
	return fs.put(path, FileNode{lazy: &lc, Attr: attr, ModTime: modTime})
}

// mkParents registers every parent directory of clean, whose key is
// strings.ToLower(clean). It cuts both strings at their last '\\' in
// lockstep, so each parent key is a substring of key and costs no
// allocation. That is sound because ToLower maps rune by rune and never
// creates or removes a '\\': the i-th separator of one string is the
// i-th of the other, even where a rune's lower-case form has another
// byte length.
func (fs *FS) mkParents(clean, key string) {
	for {
		i := strings.LastIndexByte(clean, '\\')
		if i <= 0 {
			return
		}
		clean, key = clean[:i], key[:strings.LastIndexByte(key, '\\')]
		if _, ok := fs.dirs[key]; ok {
			return
		}
		fs.dirs[key] = clean
	}
}

// Mkdir registers a directory (and its parents).
func (fs *FS) Mkdir(path string) {
	clean := CleanPath(path)
	key := strings.ToLower(clean)
	fs.dirs[key] = clean
	fs.mkParents(clean, key)
}

// Read returns the file at path.
func (fs *FS) Read(path string) (*FileNode, error) {
	var buf [keyBuf]byte
	f, ok := fs.files[string(AppendLower(buf[:0], CleanPath(path)))]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, CleanPath(path))
	}
	return f, nil
}

// Exists reports whether a file exists at path.
func (fs *FS) Exists(path string) bool {
	var buf [keyBuf]byte
	_, ok := fs.files[string(AppendLower(buf[:0], CleanPath(path)))]
	return ok
}

// DirExists reports whether a directory exists at path.
func (fs *FS) DirExists(path string) bool {
	var buf [keyBuf]byte
	_, ok := fs.dirs[string(AppendLower(buf[:0], CleanPath(path)))]
	return ok
}

// Delete removes the file at path.
func (fs *FS) Delete(path string) error {
	var buf [keyBuf]byte
	key := AppendLower(buf[:0], CleanPath(path))
	if _, ok := fs.files[string(key)]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, CleanPath(path))
	}
	delete(fs.files, string(key))
	return nil
}

// Rename moves a file, preserving contents and attributes. This is how
// Stuxnet swaps s7otbxdx.dll for s7otbxsx.dll. Like Write, it refuses to
// replace a read-only file, and then leaves the source where it was; a
// rename onto the file's own path (a change of case) always succeeds.
func (fs *FS) Rename(oldPath, newPath string) error {
	oldKey := fsKey(oldPath)
	f, ok := fs.files[oldKey]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, CleanPath(oldPath))
	}
	clean := CleanPath(newPath)
	key := strings.ToLower(clean)
	if dst, ok := fs.files[key]; ok && key != oldKey && dst.Attr&AttrReadOnly != 0 {
		return fmt.Errorf("%w: %s", ErrReadOnly, clean)
	}
	delete(fs.files, oldKey)
	f.Path = clean
	fs.files[key] = f
	fs.mkParents(clean, key)
	return nil
}

// List returns the files directly inside dir, sorted by path.
func (fs *FS) List(dir string) []*FileNode {
	prefix := fsKey(dir) + `\`
	var out []*FileNode
	for key, f := range fs.files {
		if strings.HasPrefix(key, prefix) && !strings.Contains(key[len(prefix):], `\`) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Walk visits every file (sorted by path) whose path has dir as a prefix.
// An empty dir walks the whole filesystem.
func (fs *FS) Walk(dir string, visit func(*FileNode) bool) {
	prefix := ""
	if dir != "" {
		prefix = fsKey(dir) + `\`
	}
	keys := make([]string, 0, len(fs.files))
	for key := range fs.files {
		if prefix == "" || strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !visit(fs.files[key]) {
			return
		}
	}
}

// Glob returns files whose lower-cased path contains every one of the
// lower-cased substrings. The Shamoon wiper targets paths containing
// "download", "document", "picture", "music", "video", "desktop".
func (fs *FS) Glob(substrings ...string) []*FileNode {
	lowered := make([]string, len(substrings))
	for i, s := range substrings {
		lowered[i] = strings.ToLower(s)
	}
	var out []*FileNode
	for key, f := range fs.files {
		match := true
		for _, s := range lowered {
			if !strings.Contains(key, s) {
				match = false
				break
			}
		}
		if match {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FileCount returns the number of files.
func (fs *FS) FileCount() int { return len(fs.files) }

// TotalBytes returns the sum of all file sizes.
func (fs *FS) TotalBytes() int64 {
	var n int64
	for _, f := range fs.files {
		n += int64(f.Size())
	}
	return n
}
