package host

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)

func TestFSWriteReadCaseInsensitive(t *testing.T) {
	fs := NewFS()
	if err := fs.Write(`C:\Windows\System32\NetInit.exe`, []byte("body"), AttrHidden, t0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := fs.Read(`c:\windows\SYSTEM32\netinit.EXE`)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(f.Bytes(), []byte("body")) || f.Attr&AttrHidden == 0 {
		t.Fatalf("file = %+v", f)
	}
	if f.Path != `C:\Windows\System32\NetInit.exe` {
		t.Fatalf("original case lost: %s", f.Path)
	}
}

func TestFSForwardSlashNormalization(t *testing.T) {
	fs := NewFS()
	if err := fs.Write(`C:/Users/ali/documents/plan.docx`, []byte("x"), 0, t0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !fs.Exists(`C:\Users\ali\documents\plan.docx`) {
		t.Fatal("normalized path not found")
	}
}

func TestFSReadMissing(t *testing.T) {
	fs := NewFS()
	_, err := fs.Read(`C:\nope.txt`)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFSDelete(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\a.txt`, []byte("x"), 0, t0)
	if err := fs.Delete(`c:\A.TXT`); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if fs.Exists(`C:\a.txt`) {
		t.Fatal("file survived delete")
	}
	if err := fs.Delete(`C:\a.txt`); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
}

func TestFSReadOnlyRefusesOverwrite(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\locked.sys`, []byte("orig"), AttrReadOnly, t0)
	err := fs.Write(`C:\locked.sys`, []byte("new"), 0, t0)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v, want ErrReadOnly", err)
	}
	f, _ := fs.Read(`C:\locked.sys`)
	if string(f.Bytes()) != "orig" {
		t.Fatal("read-only file was modified")
	}
}

func TestFSRename(t *testing.T) {
	// The Stuxnet DLL swap: s7otbxdx.dll -> s7otbxsx.dll.
	fs := NewFS()
	orig := []byte("original comm library")
	fs.Write(`C:\Step7\s7otbxdx.dll`, orig, 0, t0)
	if err := fs.Rename(`C:\Step7\s7otbxdx.dll`, `C:\Step7\s7otbxsx.dll`); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if fs.Exists(`C:\Step7\s7otbxdx.dll`) {
		t.Fatal("old path still exists")
	}
	moved, err := fs.Read(`C:\Step7\s7otbxsx.dll`)
	if err != nil || !bytes.Equal(moved.Bytes(), orig) {
		t.Fatalf("moved file wrong: %v %q", err, moved.Bytes())
	}
	fs.Write(`C:\Step7\s7otbxdx.dll`, []byte("trojanized"), 0, t0)
	if fs.FileCount() != 2 {
		t.Fatalf("file count = %d, want 2", fs.FileCount())
	}
}

// TestFSRenameReadOnlyDestination: like Write, Rename refuses to replace
// a read-only file and leaves its source in place; a rename onto the
// file's own key (a change of case) still succeeds.
func TestFSRenameReadOnlyDestination(t *testing.T) {
	cases := []struct {
		from, to string
		refused  bool
		want     string   // content at to afterwards
		wantAttr FileAttr // attributes at to afterwards
	}{
		{from: `C:\src.dll`, to: `C:\RO.dll`, refused: true, want: "keep", wantAttr: AttrReadOnly},
		{from: `C:\src.dll`, to: `C:\rw.dll`, want: "new"},
		{from: `C:\ro.dll`, to: `C:\RO.DLL`, want: "keep", wantAttr: AttrReadOnly},
		{from: `C:\src.dll`, to: `C:\lib\new.dll`, want: "new"},
	}
	for _, c := range cases {
		t.Run(c.from+"->"+c.to, func(t *testing.T) {
			fs := NewFS()
			fs.Write(`C:\ro.dll`, []byte("keep"), AttrReadOnly, t0)
			fs.Write(`C:\rw.dll`, []byte("old"), 0, t0)
			fs.Write(`C:\src.dll`, []byte("new"), 0, t0)
			err := fs.Rename(c.from, c.to)
			if c.refused {
				if !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), c.to) {
					t.Fatalf("Rename = %v, want ErrReadOnly naming %s", err, c.to)
				}
				if f, err := fs.Read(c.from); err != nil || string(f.Bytes()) != "new" {
					t.Fatalf("refused rename moved its source: %v", err)
				}
			} else if err != nil {
				t.Fatalf("Rename: %v", err)
			}
			f, err := fs.Read(c.to)
			if err != nil || string(f.Bytes()) != c.want || f.Attr != c.wantAttr {
				t.Fatalf("%s = %+v (%v), want %q with attr %d", c.to, f, err, c.want, c.wantAttr)
			}
			if !c.refused && !strings.EqualFold(c.from, c.to) && fs.Exists(c.from) {
				t.Fatalf("%s survived the rename", c.from)
			}
		})
	}
}

func TestFSRenameMissing(t *testing.T) {
	fs := NewFS()
	if err := fs.Rename(`C:\a`, `C:\b`); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestFSListDirectChildrenOnly(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\dir\a.txt`, nil, 0, t0)
	fs.Write(`C:\dir\b.txt`, nil, 0, t0)
	fs.Write(`C:\dir\sub\c.txt`, nil, 0, t0)
	got := fs.List(`C:\dir`)
	if len(got) != 2 {
		t.Fatalf("List = %d entries, want 2", len(got))
	}
	if got[0].Path != `C:\dir\a.txt` || got[1].Path != `C:\dir\b.txt` {
		t.Fatalf("List order wrong: %v, %v", got[0].Path, got[1].Path)
	}
}

func TestFSWalkSortedAndPrefixed(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\Users\u\documents\b.docx`, nil, 0, t0)
	fs.Write(`C:\Users\u\documents\a.docx`, nil, 0, t0)
	fs.Write(`C:\Windows\notes.txt`, nil, 0, t0)
	var paths []string
	fs.Walk(`C:\Users`, func(f *FileNode) bool {
		paths = append(paths, f.Path)
		return true
	})
	if len(paths) != 2 || paths[0] != `C:\Users\u\documents\a.docx` {
		t.Fatalf("Walk = %v", paths)
	}
	// Early termination.
	n := 0
	fs.Walk("", func(f *FileNode) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Walk did not stop early: %d", n)
	}
}

func TestFSGlob(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\Users\u\downloads\setup.exe`, nil, 0, t0)
	fs.Write(`C:\Users\u\documents\report.docx`, nil, 0, t0)
	fs.Write(`C:\Windows\System32\cmd.exe`, nil, 0, t0)
	got := fs.Glob("download")
	if len(got) != 1 || got[0].Path != `C:\Users\u\downloads\setup.exe` {
		t.Fatalf("Glob = %v", got)
	}
	got = fs.Glob("users", ".docx")
	if len(got) != 1 {
		t.Fatalf("Glob two substrings = %v", got)
	}
}

func TestFSDirTracking(t *testing.T) {
	fs := NewFS()
	if !fs.DirExists(`C:\Windows\System32`) {
		t.Fatal("standard skeleton missing")
	}
	fs.Write(`D:\data\deep\file.bin`, nil, 0, t0)
	if !fs.DirExists(`D:\data\deep`) || !fs.DirExists(`D:\data`) {
		t.Fatal("implicit parents not created")
	}
}

func TestFileNodeExt(t *testing.T) {
	cases := map[string]string{
		`C:\a\b.DOCX`: "docx",
		`C:\a\noext`:  "",
		`C:\a\.bash`:  "bash",
		`C:\a\f.tar`:  "tar",
	}
	for path, want := range cases {
		f := &FileNode{Path: CleanPath(path)}
		if got := f.Ext(); got != want {
			t.Errorf("Ext(%s) = %q, want %q", path, got, want)
		}
	}
}

func TestFSTotalBytes(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\a`, make([]byte, 100), 0, t0)
	fs.Write(`C:\b`, make([]byte, 28), 0, t0)
	if fs.TotalBytes() != 128 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
}

func TestFSWriteCopiesData(t *testing.T) {
	fs := NewFS()
	data := []byte("mutable")
	fs.Write(`C:\x`, data, 0, t0)
	data[0] = 'X'
	f, _ := fs.Read(`C:\x`)
	if f.Bytes()[0] != 'm' {
		t.Fatal("FS aliases caller's slice")
	}
}

func TestCleanPathProperty(t *testing.T) {
	f := func(parts []string) bool {
		p := "C:"
		for _, part := range parts {
			p += `\` + part
		}
		clean := CleanPath(p)
		return clean == CleanPath(clean) // idempotent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refMkParents is mkParents as it was when it lower-cased each parent
// afresh: the reference for cutting parent keys out of the child's key.
func refMkParents(fs *FS, clean string) {
	for {
		i := strings.LastIndexByte(clean, '\\')
		if i <= 0 {
			return
		}
		clean = clean[:i]
		key := strings.ToLower(clean)
		if _, ok := fs.dirs[key]; ok {
			return
		}
		fs.dirs[key] = clean
	}
}

// refPut, refMkdir and refRename are put, Mkdir and Rename over
// refMkParents, for files that are not read-only.
func refPut(fs *FS, path string, node *FileNode) {
	clean := CleanPath(path)
	node.Path = clean
	fs.files[fsKey(clean)] = node
	refMkParents(fs, clean)
}

func refMkdir(fs *FS, path string) {
	clean := CleanPath(path)
	fs.dirs[strings.ToLower(clean)] = clean
	refMkParents(fs, clean)
}

func refRename(fs *FS, oldPath, newPath string) {
	f := fs.files[fsKey(oldPath)]
	delete(fs.files, fsKey(oldPath))
	refPut(fs, newPath, f)
}

// TestFSKeysMatchReference runs every path-registering operation on an
// FS and on the reference, over paths whose lower-case form differs from
// the original in length or shape, and requires the same file keys,
// paths and directory map.
func TestFSKeysMatchReference(t *testing.T) {
	paths := []string{
		`C:\Users\Ali\Documents\Plan.DOCX`,
		`C:/Users/ali/Downloads/Setup.exe`,
		`C:\\Data\\\\Deep\\x.bin`,
		`C:\Data\Trail\`,
		`\Server\Share\File.txt`,
		`C:`,
		`D:\a\B\c\D\e\F\g\H\i\Deep.txt`,
		"C:\\\u212Aelvin\\\u212A\\K\u212A.txt", // Kelvin sign: 3 bytes, lower-case 'k' 1
		"C:\\\u0130stanbul\\D\u0130R\\f.txt",   // dotted capital I: 2 bytes, lower-case 'i' 1
		"C:\\Bad\xff\\Dir\xff\\F\xff.txt",      // invalid byte: lower-cases to 3-byte U+FFFD
	}
	empty := func() *FS { return &FS{files: map[string]*FileNode{}, dirs: map[string]string{}} }
	fs, ref := empty(), empty()
	for _, p := range paths {
		fs.Write(p, []byte("w"), 0, t0)
		refPut(ref, p, &FileNode{})
		fs.WriteShared(p+`\Shared.BIN`, []byte("s"), 0, t0)
		refPut(ref, p+`\Shared.BIN`, &FileNode{})
		fs.WriteLazy(p+`\Lazy\Doc.TXT`, LazyContent{Seed: 1, Len: 8}, 0, t0)
		refPut(ref, p+`\Lazy\Doc.TXT`, &FileNode{})
		fs.Mkdir(p + `\Sub\DIR`)
		refMkdir(ref, p+`\Sub\DIR`)
		if err := fs.Rename(p, `R:\Moved\`+p); err != nil {
			t.Fatalf("Rename(%q): %v", p, err)
		}
		refRename(ref, p, `R:\Moved\`+p)
	}
	if !maps.Equal(fs.dirs, ref.dirs) {
		t.Fatalf("dirs differ:\n got %q\nwant %q", fs.dirs, ref.dirs)
	}
	if len(fs.files) != len(ref.files) {
		t.Fatalf("%d files, reference %d", len(fs.files), len(ref.files))
	}
	for key, f := range ref.files {
		if got, ok := fs.files[key]; !ok || got.Path != f.Path {
			t.Fatalf("file key %q: got %+v, reference path %q", key, got, f.Path)
		}
	}
}

// TestFSWriteAllocs pins a write into a known mixed-case directory. A
// new file takes three allocations: the copy of the data, the node, and
// the one lower-cased key; parent keys are cut from that key, so none is
// built. A rewrite of an existing path keeps its node and key, so Write
// copies the data and nothing else, and WriteShared allocates nothing.
func TestFSWriteAllocs(t *testing.T) {
	data := []byte("draft")
	t.Run("new", func(t *testing.T) {
		fs := NewFS()
		fs.files = make(map[string]*FileNode, 256) // no growth while measuring
		paths := make([]string, 101)
		for i := range paths {
			paths[i] = fmt.Sprintf(`C:\Users\Ali\Documents\Plan%03d.DOCX`, i)
		}
		fs.Mkdir(`C:\Users\Ali\Documents`)
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := fs.Write(paths[i], data, 0, t0); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 3 {
			t.Fatalf("FS.Write of a new file allocates %.1f objects per call, want 3", allocs)
		}
	})
	t.Run("rewrite", func(t *testing.T) {
		fs := NewFS()
		path := `C:\Users\Ali\Documents\Plan.DOCX`
		fs.Write(path, data, 0, t0)
		allocs := testing.AllocsPerRun(100, func() {
			if err := fs.Write(path, data, 0, t0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("FS.Write over an existing file allocates %.1f objects per call, want 1", allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if err := fs.WriteShared(path, data, 0, t0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("FS.WriteShared over an existing file allocates %.1f objects per call, want 0", allocs)
		}
	})
}

// TestLookupAllocs pins the lookups of an ASCII key at zero allocations:
// the key is lower-cased into a stack buffer, hits and misses alike.
func TestLookupAllocs(t *testing.T) {
	fs := NewFS()
	path := `C:\Windows\System32\TrkSvr.exe`
	fs.Write(path, []byte("x"), 0, t0)
	r := NewRegistry()
	key := `HKLM\SOFTWARE\Shamoon\WipeCount`
	r.Set(key, "2")
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"FS.Read", func() { fs.Read(`c:\WINDOWS\system32\trksvr.EXE`) }},
		{"FS.Exists", func() { fs.Exists(path) }},
		{"FS.Exists(miss)", func() { fs.Exists(`C:\Windows\System32\Missing.exe`) }},
		{"FS.DirExists", func() { fs.DirExists(`C:\WINDOWS\System32`) }},
		{"Registry.Get", func() { r.Get(key) }},
		{"Registry.Get(miss)", func() { r.Get(`HKLM\SOFTWARE\Missing`) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", c.name, allocs)
		}
	}
}

// TestNonASCIIKeysResolve checks the strings.ToLower fallback: a key with
// a Kelvin sign, whose lower case is the ASCII 'k', is found under its
// own spelling and under the ASCII one, by every lookup, and a key
// longer than the stack buffer is found too.
func TestNonASCIIKeysResolve(t *testing.T) {
	fs := NewFS()
	kelvin := "C:\\\u212Aelvin\\\u212A.txt"
	fs.Write(kelvin, []byte("k"), 0, t0)
	for _, p := range []string{kelvin, `C:\Kelvin\K.TXT`, "c:/\u212Aelvin/k.txt"} {
		if f, err := fs.Read(p); err != nil || string(f.Bytes()) != "k" || !fs.Exists(p) {
			t.Fatalf("Read(%q) = %v, %v", p, f, err)
		}
	}
	if !fs.DirExists("C:\\\u212AELVIN") || !fs.DirExists(`c:\kelvin`) {
		t.Fatal("Kelvin directory not found")
	}
	long := `C:\` + strings.Repeat(`Deep\`, keyBuf/4) + `F.txt`
	fs.Write(long, []byte("l"), 0, t0)
	if !fs.Exists(strings.ToUpper(long)) {
		t.Fatal("key longer than the stack buffer not found")
	}
	if err := fs.Delete(`C:\KELVIN\k.txt`); err != nil || fs.Exists(kelvin) {
		t.Fatalf("Delete through the ASCII spelling: %v", err)
	}
	r := NewRegistry()
	r.Set("HKLM\\\u212Aey", "v")
	if v, ok := r.Get(`hklm\key`); !ok || v != "v" {
		t.Fatal("Kelvin registry key not found under its ASCII spelling")
	}
	if v, ok := r.Get("HKLM\\\u212AEY"); !ok || v != "v" {
		t.Fatal("Kelvin registry key not found under its own spelling")
	}
	r.Delete("hklm\\\u212Aey")
	if r.Len() != 0 {
		t.Fatal("Kelvin registry key survived Delete")
	}
}

// TestRewriteKeepsNode pins the rewrite contract: a write to an existing
// path updates the node already there, as a Windows handle sees a file,
// so a *FileNode taken before the write reads the new content,
// attributes, time and case. After Delete a write makes a new node.
func TestRewriteKeepsNode(t *testing.T) {
	fs := NewFS()
	path := `C:\Users\ali\Documents\plan.docx`
	fs.WriteLazy(path, LazyContent{Seed: 3, Len: 64, Doc: true}, AttrHidden, t0)
	held, _ := fs.Read(path)
	t1 := t0.Add(time.Hour)
	fs.WriteShared(`C:\USERS\Ali\documents\PLAN.docx`, []byte("\xFF\xD8 jpeg"), 0, t1)
	if got, _ := fs.Read(path); got != held {
		t.Fatal("a rewrite replaced the node")
	}
	if string(held.Bytes()) != "\xFF\xD8 jpeg" || held.Attr != 0 || !held.ModTime.Equal(t1) ||
		held.Path != `C:\USERS\Ali\documents\PLAN.docx` || !held.shared || !held.Materialized() {
		t.Fatalf("held node after WriteShared = %+v", held)
	}
	fs.Write(path, []byte("owned"), AttrSystem, t0)
	if string(held.MutableBytes()) != "owned" || held.Attr != AttrSystem || held.shared {
		t.Fatalf("held node after Write = %+v", held)
	}
	fs.WriteLazy(path, LazyContent{Seed: 3, Len: 64, Doc: true}, 0, t0)
	if held.Materialized() || !bytes.Equal(held.Bytes(), LazyContent{Seed: 3, Len: 64, Doc: true}.Generate()) {
		t.Fatal("held node did not turn lazy again")
	}
	if fs.FileCount() != 1 {
		t.Fatalf("%d files after rewrites of one path", fs.FileCount())
	}
	fs.Delete(path)
	fs.Write(path, []byte("new"), 0, t0)
	if f, _ := fs.Read(path); f == held || string(held.Bytes()) == "new" {
		t.Fatal("a write after Delete reused the deleted node")
	}
}

// TestReadOnlyRewriteLeavesNode checks that a refused rewrite of a
// read-only file changes nothing in the node, its case included.
func TestReadOnlyRewriteLeavesNode(t *testing.T) {
	fs := NewFS()
	fs.Write(`C:\Locked.sys`, []byte("orig"), AttrReadOnly|AttrSystem, t0)
	held, _ := fs.Read(`C:\Locked.sys`)
	for _, write := range []func() error{
		func() error { return fs.Write(`C:\LOCKED.SYS`, []byte("new"), 0, t0.Add(time.Hour)) },
		func() error { return fs.WriteShared(`c:\locked.sys`, []byte("new"), 0, t0.Add(time.Hour)) },
		func() error { return fs.WriteLazy(`C:\locked.SYS`, LazyContent{Len: 3}, 0, t0.Add(time.Hour)) },
	} {
		if err := write(); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("err = %v, want ErrReadOnly", err)
		}
		if string(held.Bytes()) != "orig" || held.Attr != AttrReadOnly|AttrSystem || !held.ModTime.Equal(t0) ||
			held.Path != `C:\Locked.sys` || held.shared {
			t.Fatalf("refused rewrite changed the node: %+v", held)
		}
	}
}

// TestNewFSSkeleton checks that the cloned skeleton is the directory map
// the Mkdir calls on an empty FS build, and that a clone is a copy: one
// FS's Mkdir does not reach another.
func TestNewFSSkeleton(t *testing.T) {
	ref := &FS{files: map[string]*FileNode{}, dirs: map[string]string{}}
	for _, d := range []string{
		`C:`, `C:\Windows`, `C:\Windows\System32`, `C:\Windows\System32\drivers`,
		`C:\Users`, `C:\Program Files`,
	} {
		refMkdir(ref, d)
	}
	a, b := NewFS(), NewFS()
	if !maps.Equal(a.dirs, ref.dirs) || len(a.files) != 0 {
		t.Fatalf("NewFS dirs = %q, want %q", a.dirs, ref.dirs)
	}
	a.Mkdir(`C:\Temp`)
	if b.DirExists(`C:\Temp`) || len(b.dirs) != len(ref.dirs) {
		t.Fatal("a Mkdir on one FS reached another")
	}
}

// TestNewFSAllocs pins NewFS at four allocations: the FS, its file map,
// and the skeleton copy's map header and entry storage. Building
// the skeleton with Mkdir took ten, six of them lower-cased keys.
func TestNewFSAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() { _ = NewFS() })
	if allocs > 4 {
		t.Fatalf("NewFS allocates %.1f objects per call, want at most 4", allocs)
	}
}
