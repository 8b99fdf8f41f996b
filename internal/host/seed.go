package host

import (
	"fmt"

	"repro/internal/sim"
)

// Document extensions the Flame JIMMY module hunts for (paper, III-A) plus
// common filler types.
var docExtensions = []string{"docx", "ppt", "csv", "dwg", "pdf", "xlsx", "txt", "jpg"}

// User-profile folders the Shamoon wiper targets by name (paper, IV-B).
var UserFolders = []string{"download", "document", "picture", "music", "video", "desktop"}

// SeedDocuments populates the host with n synthetic user documents spread
// across the standard profile folders, sized 1–64 KiB, for collection and
// wiping experiments. It returns the total bytes seeded and the number of
// documents that could not be written (path collisions with read-only
// files — zero on a freshly built host).
func (h *Host) SeedDocuments(user string, n int) (int64, int) {
	return h.SeedDocumentsSized(user, n, 64*1024)
}

// SeedDocumentsSized is SeedDocuments with a maximum document size —
// fleet-scale scenarios use small documents to keep tens of thousands of
// hosts cheap. Each document's content is drawn from the host RNG by
// WriteDoc.
func (h *Host) SeedDocumentsSized(user string, n, maxBytes int) (int64, int) {
	if maxBytes < 2048 {
		maxBytes = 2048
	}
	var total int64
	failed := 0
	for i := 0; i < n; i++ {
		folder := UserFolders[h.RNG.Intn(len(UserFolders))]
		ext := docExtensions[h.RNG.Intn(len(docExtensions))]
		size := 1024 + h.RNG.Intn(maxBytes-1024)
		path := fmt.Sprintf(`C:\Users\%s\%ss\report-%04d.%s`, user, folder, i, ext)
		if err := h.WriteDoc(path, size, h.RNG); err != nil {
			failed++
			continue
		}
		total += int64(size)
	}
	return total, failed
}

// WriteDoc writes a generated document of size bytes at path, its content
// drawn from rng. By default the document is lazy: the file records rng's
// position and rng skips exactly the draws an eager write would consume,
// so the stream after the call is the same in both modes and a later read
// generates exactly the bytes an eager write would have stored (DESIGN.md
// §9). Hosts built with WithEagerDocs materialise the bytes at once.
func (h *Host) WriteDoc(path string, size int, rng *sim.RNG) error {
	if h.EagerDocs {
		data := rng.Bytes(size)
		docTransform(data)
		return h.FS.Write(path, data, 0, h.K.Now())
	}
	lc := LazyContent{Seed: rng.State(), Len: size, Doc: true}
	rng.Skip((size + 7) / 8)
	return h.FS.WriteLazy(path, lc, 0, h.K.Now())
}

// BrowserLogin is one stored browser credential.
type BrowserLogin struct {
	Domain   string
	User     string
	Password string
}

// BrowserProfilePath is where a user's stored logins live.
func BrowserProfilePath(user string) string {
	return `C:\Users\` + user + `\AppData\Roaming\browser\logins.db`
}

// SeedBrowserProfile writes a browser credential store for the user — the
// banking-credential surface Gauss harvests.
func (h *Host) SeedBrowserProfile(user string, logins []BrowserLogin) error {
	var data []byte
	for _, l := range logins {
		data = append(data, []byte(l.Domain+"|"+l.User+"|"+l.Password+"\n")...)
	}
	return h.FS.Write(BrowserProfilePath(user), data, 0, h.K.Now())
}

// WipeCheck summarizes destructive-attack outcomes for one host.
type WipeCheck struct {
	Host        string
	FilesWiped  int
	MBRIntact   bool
	Bootable    bool
	WipedMarker bool
}

// CheckWipe inspects the host after a destructive attack: how many user
// files now begin with the JPEG magic (the Shamoon overwrite artefact),
// whether the MBR survived, and whether the host still boots. Prefix keeps
// the scan from materialising lazy documents — a never-touched lazy doc
// cannot start with 0xFF 0xD8 (docTransform forces byte 0 into 'a'..'z'),
// and a wiped one was rewritten eagerly by the wiper.
func (h *Host) CheckWipe() WipeCheck {
	out := WipeCheck{Host: h.Name, WipedMarker: h.Wiped, Bootable: h.Bootable()}
	_, err := h.Disk.ReadMBR()
	out.MBRIntact = err == nil
	h.FS.Walk(`C:\Users`, func(f *FileNode) bool {
		if p := f.Prefix(2); len(p) == 2 && p[0] == 0xFF && p[1] == 0xD8 {
			out.FilesWiped++
		}
		return true
	})
	return out
}

// MarkWiped records that destructive malware ran on this host.
func (h *Host) MarkWiped(reason string) {
	h.Wiped = true
	h.Logf(sim.CatWipe, "disk", "host wiped: %s", reason)
}
