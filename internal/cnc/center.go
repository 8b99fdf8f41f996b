package cnc

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AttackCenter is the single control point behind all C&C servers
// (paper, Fig. 4), with the hierarchical role separation the dissection
// highlighted: the admin prepares servers, the operator moves packages and
// sealed entries through the control panel, and only the coordinator holds
// the decryption key for stolen data.
type AttackCenter struct {
	K       *sim.Kernel
	Seal    *SealKeypair
	Pool    *DomainPool
	Servers []*Server

	// collected holds sealed entries the operator pulled from servers,
	// awaiting the coordinator.
	collected []*Entry
	// decrypted is the coordinator's cleartext archive.
	decrypted []StolenDoc
}

// StolenDoc is one decrypted exfiltrated document.
type StolenDoc struct {
	ClientID string
	Name     string
	Data     []byte
}

// NewAttackCenter provisions the full platform: coordinator keys, the
// domain pool, one server per distinct pool IP, and DNS registration.
func NewAttackCenter(k *sim.Kernel, in *netsim.Internet, nDomains, nIPs int) (*AttackCenter, error) {
	seal, err := NewSealKeypair(k.RNG())
	if err != nil {
		return nil, err
	}
	center := &AttackCenter{K: k, Seal: seal}
	center.Pool = NewDomainPool(k.RNG(), nDomains, nIPs)
	center.Pool.RegisterAll(in)
	for _, ip := range center.Pool.IPs() {
		center.Servers = append(center.Servers, NewServer(k, in, ip, seal.Public))
	}
	return center, nil
}

// Admin returns the admin role handle.
func (c *AttackCenter) Admin() Admin { return Admin{c} }

// Operator returns the operator role handle.
func (c *AttackCenter) Operator() Operator { return Operator{c} }

// Coordinator returns the coordinator role handle.
func (c *AttackCenter) Coordinator() Coordinator { return Coordinator{c} }

// Admin prepares and maintains servers (ssh + scripts in the paper).
type Admin struct{ c *AttackCenter }

// ProvisionAll runs LogWiper and starts the 30-minute retention job on
// every server.
func (a Admin) ProvisionAll(retention time.Duration) {
	for _, s := range a.c.Servers {
		s.RunLogWiper()
		s.StartCleanup(retention)
	}
}

// Operator drives the control panel: uploading packages, downloading
// sealed entries. The operator never sees plaintext.
type Operator struct{ c *AttackCenter }

// PushCommandAll queues a broadcast package on every server. The order is
// a root causal span (category c2, vector "c2-order"): every client-side
// effect of the command attributes to it.
func (o Operator) PushCommandAll(name string, payload []byte) {
	span := o.c.K.OpenSpan(sim.CatC2, "attack-center",
		fmt.Sprintf("operator order: broadcast %s", name), "c2-order",
		obs.T("package", name))
	for _, s := range o.c.Servers {
		s.PushNews(&Package{Name: name, Payload: payload, Span: span})
	}
}

// PushCommand queues a targeted package on every server (the client may
// contact any of them). Like PushCommandAll, the order opens a root span.
func (o Operator) PushCommand(clientID, name string, payload []byte) {
	span := o.c.K.OpenSpan(sim.CatC2, "attack-center",
		fmt.Sprintf("operator order: %s -> %s", name, clientID), "c2-order",
		obs.T("package", name), obs.T("client", clientID))
	for _, s := range o.c.Servers {
		s.PushAd(clientID, &Package{Name: name, Payload: payload, Span: span})
	}
}

// RecoverFromTakedown surveys the pool against live DNS, registers fresh
// replacement domains for every lost one (same server fleet, new names —
// the operators' observed response to takedowns), and broadcasts the fresh
// names as a config:domains package so surviving clients re-expand their
// lists on next check-in. Returns how many fresh domains were registered.
func (o Operator) RecoverFromTakedown(in *netsim.Internet) int {
	lost := 0
	for _, r := range o.c.Pool.Registrations {
		if ip, ok := in.Resolve(r.Domain); !ok || ip != r.IP {
			lost++
		}
	}
	if lost == 0 {
		return 0
	}
	fresh := o.c.Pool.Extend(o.c.K.RNG(), lost)
	payload := make([]byte, 0, 32*len(fresh))
	for i, r := range fresh {
		if i > 0 {
			payload = append(payload, '\n')
		}
		payload = append(payload, r.Domain...)
		in.RegisterDomain(r.Domain, r.IP)
	}
	o.c.K.Metrics().Counter("cnc.domain.reregister").Add(float64(len(fresh)))
	o.c.K.Trace().Add(o.c.K.Now(), sim.CatC2, "attack-center",
		"operator re-registered %d replacement domains after takedown", len(fresh))
	o.PushCommandAll(PkgDomainUpdate, payload)
	return len(fresh)
}

// CollectAll downloads unretrieved sealed entries from every server into
// the attack center. It returns how many entries moved.
func (o Operator) CollectAll() int {
	n := 0
	for _, s := range o.c.Servers {
		entries := s.FetchEntries()
		o.c.collected = append(o.c.collected, entries...)
		n += len(entries)
	}
	if n > 0 {
		o.c.K.Trace().Add(o.c.K.Now(), sim.CatC2, "attack-center", "operator collected %d sealed entries", n)
	}
	return n
}

// SealedInbox returns the sealed entries awaiting the coordinator.
func (o Operator) SealedInbox() []*Entry { return o.c.collected }

// TryRead attempts to read an entry as the operator — it always fails,
// demonstrating the role separation the paper describes.
func (o Operator) TryRead(e *Entry) ([]byte, error) {
	return nil, ErrOperatorCannotDecrypt
}

// ErrOperatorCannotDecrypt marks the operator's lack of the private key.
var ErrOperatorCannotDecrypt = errors.New("cnc: entry is sealed to the coordinator key; operator holds no private key")

// Coordinator is the only role holding the seal private key.
type Coordinator struct{ c *AttackCenter }

// DecryptAll opens every collected entry into the cleartext archive,
// returning how many documents were recovered. The entries are opened
// side by side on up to GOMAXPROCS goroutines (DESIGN.md §9): each open
// reads only its entry's sealed bytes and the private key and writes only
// its own slot, and the archive grows in entry order on the caller's
// goroutine, so the width changes no byte. At the first entry that does
// not open, DecryptAll stops with the documents before it archived, n
// counting them, and every entry left collected.
func (co Coordinator) DecryptAll() (int, error) {
	return co.decryptAll(runtime.GOMAXPROCS(0))
}

// decryptAll is DecryptAll on a pool of the given width.
func (co Coordinator) decryptAll(workers int) (int, error) {
	entries := co.c.collected
	plains := make([][]byte, len(entries))
	errs := make([]error, len(entries))
	sim.RunPool(len(entries), workers, func(i int) {
		plains[i], errs[i] = co.c.Seal.Open(entries[i].Sealed)
	})
	for i, e := range entries {
		if errs[i] != nil {
			return i, fmt.Errorf("decrypt entry %d: %w", e.ID, errs[i])
		}
		co.c.decrypted = append(co.c.decrypted, StolenDoc{ClientID: e.ClientID, Name: e.Name, Data: plains[i]})
	}
	co.c.collected = co.c.collected[:0]
	return len(entries), nil
}

// Archive returns the decrypted documents.
func (co Coordinator) Archive() []StolenDoc { return co.c.decrypted }

// TotalStolenBytes sums sealed bytes ever received across all servers.
func (c *AttackCenter) TotalStolenBytes() int64 {
	var n int64
	for _, s := range c.Servers {
		n += s.TotalEntryBytes
	}
	return n
}
