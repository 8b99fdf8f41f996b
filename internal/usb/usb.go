// Package usb models removable drives — the paper's dominant initial
// infection vector. A drive carries plain files, Windows shortcut (LNK)
// entries, an optional autorun.inf, and the hidden on-stick database Flame
// used to ferry documents out of air-gapped networks.
package usb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// File is a plain file stored on the drive.
type File struct {
	Name   string
	Data   []byte
	Hidden bool
}

// LNK is a Windows shortcut entry. The Stuxnet delivery drive carries one
// crafted LNK per target OS version (paper, footnote 2); merely rendering
// the icon on an unpatched host (MS10-046) executes the payload file.
type LNK struct {
	Name        string
	OSTag       string // e.g. "winxp", "win7" — which OS the exploit build targets
	PayloadFile string // name of the payload file on this drive
	Malicious   bool
}

// Autorun models an autorun.inf that points at an executable on the drive.
type Autorun struct {
	Exec string
}

// Drive is a removable USB drive.
type Drive struct {
	Label   string
	files   map[string]*File // key: lower-case name
	LNKs    []LNK
	Autorun *Autorun
	// Hidden exfil database (Flame): created lazily by malware code.
	HiddenDB *HiddenStore
	// Insertions counts how many hosts this drive has been inserted into;
	// Stuxnet limits itself to three infections per drive.
	Insertions int
	// OriginSpan is the causal episode that armed this drive with malware
	// (zero for clean or externally prepared drives). Hosts executing a
	// payload from the drive attribute the new infection to this span.
	OriginSpan obs.Span
}

// NewDrive returns an empty drive.
func NewDrive(label string) *Drive {
	return &Drive{Label: label, files: make(map[string]*File)}
}

// Put stores a copy of data as a file on the drive (replacing any
// same-named file), so the caller keeps ownership of its slice.
func (d *Drive) Put(name string, data []byte, hidden bool) {
	cp := make([]byte, len(data))
	copy(cp, data)
	d.PutShared(name, cp, hidden)
}

// PutShared is Put without the copy: the file's Data aliases data. The
// caller promises the buffer is immutable for the rest of the run, the
// contract host.FS.WriteShared asks of its callers too. A same-named
// file is replaced in place, as host.FS replaces a rewritten file's
// node, so a *File taken before the write sees the new content.
func (d *Drive) PutShared(name string, data []byte, hidden bool) {
	key := strings.ToLower(name)
	if f, ok := d.files[key]; ok {
		f.Name, f.Data, f.Hidden = name, data, hidden
		return
	}
	d.files[key] = &File{Name: name, Data: data, Hidden: hidden}
}

// Get returns the named file, or nil.
func (d *Drive) Get(name string) *File {
	return d.files[strings.ToLower(name)]
}

// Remove deletes the named file if present.
func (d *Drive) Remove(name string) {
	delete(d.files, strings.ToLower(name))
}

// Files returns all files sorted by name.
func (d *Drive) Files() []*File {
	out := make([]*File, 0, len(d.files))
	for _, f := range d.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VisibleFiles returns non-hidden files sorted by name — what a casual user
// sees in Explorer.
func (d *Drive) VisibleFiles() []*File {
	var out []*File
	for _, f := range d.Files() {
		if !f.Hidden {
			out = append(out, f)
		}
	}
	return out
}

// HiddenStore is Flame's covert on-stick database. Documents harvested in a
// disconnected (air-gapped) zone are parked here and uploaded when the
// stick later reaches an internet-connected infected host (paper, III-B).
type HiddenStore struct {
	// InternetSeen records that the stick has visited a host that had
	// internet connectivity, which is the condition Flame checks before
	// parking stolen documents on the stick.
	InternetSeen bool
	entries      map[string][]byte
	order        []string
}

// NewHiddenStore returns an empty hidden database.
func NewHiddenStore() *HiddenStore {
	return &HiddenStore{entries: make(map[string][]byte)}
}

// Park stores a stolen document under name (first write wins; re-parking a
// name is counted as an overwrite).
func (h *HiddenStore) Park(name string, data []byte) {
	if _, ok := h.entries[name]; !ok {
		h.order = append(h.order, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	h.entries[name] = cp
}

// Drain removes and returns all parked documents in insertion order.
func (h *HiddenStore) Drain() []ParkedDoc {
	out := make([]ParkedDoc, 0, len(h.order))
	for _, name := range h.order {
		out = append(out, ParkedDoc{Name: name, Data: h.entries[name]})
		delete(h.entries, name)
	}
	h.order = h.order[:0]
	return out
}

// Len reports the number of parked documents.
func (h *HiddenStore) Len() int { return len(h.entries) }

// ParkedDoc is one document lifted from an air-gapped zone.
type ParkedDoc struct {
	Name string
	Data []byte
}

func (p ParkedDoc) String() string {
	return fmt.Sprintf("%s (%d bytes)", p.Name, len(p.Data))
}
