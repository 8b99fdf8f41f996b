package usb

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestDrivePutGetRemove(t *testing.T) {
	d := NewDrive("STICK")
	d.Put("Payload.EXE", []byte{1, 2, 3}, true)
	f := d.Get("payload.exe")
	if f == nil || !bytes.Equal(f.Data, []byte{1, 2, 3}) || !f.Hidden {
		t.Fatalf("Get = %+v", f)
	}
	if f.Name != "Payload.EXE" {
		t.Fatalf("original case lost: %s", f.Name)
	}
	d.Remove("PAYLOAD.exe")
	if d.Get("payload.exe") != nil {
		t.Fatal("Remove failed")
	}
	d.Remove("ghost") // no-op
}

func TestDrivePutCopiesData(t *testing.T) {
	d := NewDrive("STICK")
	data := []byte("mutable")
	d.Put("f", data, false)
	data[0] = 'X'
	if d.Get("f").Data[0] != 'm' {
		t.Fatal("drive aliases caller slice")
	}
}

// TestDrivePutSharedAliasesData: PutShared, the immutable-buffer twin of
// Put, stores the caller's slice itself instead of a copy.
func TestDrivePutSharedAliasesData(t *testing.T) {
	d := NewDrive("STICK")
	data := []byte("immutable report")
	d.PutShared("Report.DOCX", data, true)
	f := d.Get("report.docx")
	if f == nil || f.Name != "Report.DOCX" || !f.Hidden {
		t.Fatalf("Get = %+v", f)
	}
	if len(f.Data) != len(data) || &f.Data[0] != &data[0] {
		t.Fatal("PutShared copied the buffer")
	}
}

func TestDrivePutReplaces(t *testing.T) {
	d := NewDrive("STICK")
	d.Put("f", []byte("one"), false)
	d.Put("F", []byte("two"), true)
	fs := d.Files()
	if len(fs) != 1 || string(fs[0].Data) != "two" {
		t.Fatalf("files = %+v", fs)
	}
}

func TestFilesSortedAndVisible(t *testing.T) {
	d := NewDrive("STICK")
	d.Put("zeta.doc", nil, false)
	d.Put("alpha.doc", nil, false)
	d.Put(".hidden.sys", nil, true)
	all := d.Files()
	if len(all) != 3 || all[0].Name != ".hidden.sys" {
		t.Fatalf("Files = %v", names(all))
	}
	vis := d.VisibleFiles()
	if len(vis) != 2 || vis[0].Name != "alpha.doc" || vis[1].Name != "zeta.doc" {
		t.Fatalf("VisibleFiles = %v", names(vis))
	}
}

func names(fs []*File) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

func TestHiddenStoreParkDrain(t *testing.T) {
	h := NewHiddenStore()
	h.Park("b.docx", []byte("bravo"))
	h.Park("a.docx", []byte("alpha"))
	h.Park("b.docx", []byte("bravo-v2")) // overwrite keeps position
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	docs := h.Drain()
	if len(docs) != 2 || docs[0].Name != "b.docx" || string(docs[0].Data) != "bravo-v2" || docs[1].Name != "a.docx" {
		t.Fatalf("Drain = %v", docs)
	}
	if h.Len() != 0 {
		t.Fatal("Drain did not empty the store")
	}
	if len(h.Drain()) != 0 {
		t.Fatal("second Drain returned documents")
	}
}

func TestHiddenStoreParkCopies(t *testing.T) {
	h := NewHiddenStore()
	data := []byte("secret")
	h.Park("d", data)
	data[0] = 'X'
	if string(h.Drain()[0].Data) != "secret" {
		t.Fatal("store aliases caller slice")
	}
}

func TestParkedDocString(t *testing.T) {
	p := ParkedDoc{Name: "x.dwg", Data: make([]byte, 42)}
	if p.String() != "x.dwg (42 bytes)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestHiddenStoreProperty(t *testing.T) {
	// Drain returns exactly what was parked (last write per name, in
	// first-park order).
	f := func(keys []uint8, payload []byte) bool {
		h := NewHiddenStore()
		want := map[string][]byte{}
		var order []string
		for i, k := range keys {
			name := string('a' + rune(k%5))
			var data []byte
			if len(payload) > 0 {
				data = payload[i%len(payload):]
			}
			if _, seen := want[name]; !seen {
				order = append(order, name)
			}
			want[name] = data
			h.Park(name, data)
		}
		docs := h.Drain()
		if len(docs) != len(order) {
			return false
		}
		for i, d := range docs {
			if d.Name != order[i] || !bytes.Equal(d.Data, want[d.Name]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
