package cnc

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// BeaconClient is the C&C client half compiled into an implant: a list of
// known domains (5 at build time, ~10 after first contact), the client
// identity, and the coordinator public key used to seal uploads.
type BeaconClient struct {
	ID      string
	Type    ClientType
	Domains []string
	SealPub *SealKey
	// Contacted records that at least one check-in succeeded.
	Contacted bool
	// Stats aggregates the client's check-in reliability telemetry.
	Stats BeaconStats

	// preferred indexes the last domain that answered; each cycle starts
	// there, so a takedown of the preferred domain shows up as an
	// explicit rotation instead of a silent walk.
	preferred int
}

// BeaconStats counts a client's C&C reliability outcomes. Everything here
// is deterministic for a fixed seed, so experiments can assert on it.
type BeaconStats struct {
	Attempts       int // Contact cycles started
	Successes      int // cycles that reached a live server
	Failovers      int // per-domain failures skipped over, all cycles
	Rotations      int // times the preferred domain changed
	ConsecFailures int // consecutive fully-failed cycles (reset on success)
}

// ErrNoServer is returned when no configured domain answers.
var ErrNoServer = errors.New("cnc: no configured C&C domain reachable")

// PkgDomainUpdate is the package name carrying an expanded domain list
// (newline-separated) pushed after first contact.
const PkgDomainUpdate = "config:domains"

// NextDelay returns the deterministic retry backoff after the current
// failure streak: base << min(streak, 5). A beacon that keeps failing
// thins its own traffic out — the "try again later, less often" behaviour
// a client needs once its domains die.
func (bc *BeaconClient) NextDelay(base time.Duration) time.Duration {
	shift := bc.Stats.ConsecFailures
	if shift > 5 {
		shift = 5
	}
	return base << uint(shift)
}

// PreferredDomain returns the domain the next cycle will try first.
func (bc *BeaconClient) PreferredDomain() string {
	if len(bc.Domains) == 0 {
		return ""
	}
	return bc.Domains[bc.preferred%len(bc.Domains)]
}

// failReason classifies a failed exchange for the audit trail.
func failReason(resp *netsim.Response, err error) string {
	switch {
	case err == nil && resp != nil:
		return fmt.Sprintf("http-%d", resp.Status)
	case errors.Is(err, netsim.ErrNXDomain):
		return "nxdomain"
	case errors.Is(err, netsim.ErrNoSuchServer):
		return "no-server"
	case errors.Is(err, netsim.ErrPacketLoss):
		return "loss"
	case errors.Is(err, host.ErrHostDown):
		return "host-down"
	case errors.Is(err, netsim.ErrNoInternet):
		return "offline"
	default:
		return "error"
	}
}

// failover records one dead domain in metrics and the trace, so ErrNoServer
// outcomes leave a per-domain audit trail instead of a silent walk.
func (bc *BeaconClient) failover(h *host.Host, domain, reason string) {
	bc.Stats.Failovers++
	h.K.Metrics().Counter("cnc.beacon.failover").Inc()
	h.K.Trace().Emit(h.K.Now(), sim.CatC2, h.Name,
		fmt.Sprintf("beacon failed at %s (%s)", domain, reason),
		obs.T("domain", domain), obs.T("reason", reason))
}

// Contact performs one GET_NEWS cycle from h through its LAN, starting at
// the preferred (last-good) domain and rotating through the rest. Received
// domain-update packages are applied to the client configuration; all
// packages are returned to the caller. Every dead domain is traced and
// counted before the next is tried.
func (bc *BeaconClient) Contact(l *netsim.LAN, h *host.Host) ([]*Package, error) {
	bc.Stats.Attempts++
	n := len(bc.Domains)
	for i := 0; i < n; i++ {
		idx := (bc.preferred + i) % n
		domain := bc.Domains[idx]
		resp, err := l.HTTP(h, &netsim.Request{
			Method: "POST",
			Host:   domain,
			Path:   ClientPath,
			Query:  map[string]string{"cmd": CmdGetNews, "client": bc.ID, "type": string(bc.Type)},
		})
		if err != nil || resp.Status != 200 {
			bc.failover(h, domain, failReason(resp, err))
			continue
		}
		pkgs, derr := DecodePackages(resp.Body)
		if derr != nil {
			bc.failover(h, domain, "bad-payload")
			continue
		}
		bc.Contacted = true
		bc.Stats.Successes++
		bc.Stats.ConsecFailures = 0
		if idx != bc.preferred {
			bc.preferred = idx
			bc.Stats.Rotations++
			h.K.Trace().Emit(h.K.Now(), sim.CatC2, h.Name,
				"beacon rotated preferred domain to "+domain, obs.T("domain", domain))
		}
		for _, p := range pkgs {
			if p.Name == PkgDomainUpdate {
				bc.applyDomainUpdate(p.Payload)
			}
		}
		h.K.Trace().Add(h.K.Now(), sim.CatC2, h.Name, "checked in at %s: %d packages", domain, len(pkgs))
		return pkgs, nil
	}
	bc.Stats.ConsecFailures++
	return nil, fmt.Errorf("%w (%d domains tried)", ErrNoServer, n)
}

func (bc *BeaconClient) applyDomainUpdate(payload []byte) {
	known := make(map[string]bool, len(bc.Domains))
	for _, d := range bc.Domains {
		known[d] = true
	}
	start := 0
	for i := 0; i <= len(payload); i++ {
		if i == len(payload) || payload[i] == '\n' {
			if d := string(payload[start:i]); d != "" && !known[d] {
				known[d] = true
				bc.Domains = append(bc.Domains, d)
			}
			start = i + 1
		}
	}
}

// Upload seals plaintext to the coordinator key and ADD_ENTRYs it to the
// first reachable domain, starting at the preferred one.
func (bc *BeaconClient) Upload(l *netsim.LAN, h *host.Host, name string, plaintext []byte) error {
	if bc.SealPub == nil {
		return errors.New("cnc: client has no seal public key")
	}
	sealed, err := Seal(bc.SealPub, h.RNG, plaintext)
	if err != nil {
		return err
	}
	n := len(bc.Domains)
	for i := 0; i < n; i++ {
		domain := bc.Domains[(bc.preferred+i)%n]
		resp, err := l.HTTP(h, &netsim.Request{
			Method: "POST",
			Host:   domain,
			Path:   ClientPath,
			Query:  map[string]string{"cmd": CmdAddEntry, "client": bc.ID, "type": string(bc.Type), "name": name},
			Body:   sealed,
		})
		if err == nil && resp.Status == 200 {
			return nil
		}
		bc.failover(h, domain, failReason(resp, err))
	}
	return fmt.Errorf("upload %q: %w", name, ErrNoServer)
}
