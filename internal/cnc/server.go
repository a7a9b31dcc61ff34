package cnc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ClientType tags the malware family/variant checking in — the sample
// analysis found four (paper, Section III-B).
type ClientType string

// Client types observed on the real servers.
const (
	ClientFL  ClientType = "CLIENT_TYPE_FL"
	ClientSP  ClientType = "CLIENT_TYPE_SP"
	ClientSPE ClientType = "CLIENT_TYPE_SPE"
	ClientIP  ClientType = "CLIENT_TYPE_IP"
)

// Protocol constants: the two commands infected machines use.
const (
	CmdGetNews  = "GET_NEWS"
	CmdAddEntry = "ADD_ENTRY"
	// PanelPath is the control-panel endpoint the operator uses.
	PanelPath = "/newsforyou/CP/CP.php"
	// ClientPath is the endpoint infected machines talk to.
	ClientPath = "/newsforyou/gateway.php"
)

// Package is a command or module update parked in ads/ (targeted) or
// news/ (broadcast).
//
// Span carries the causal episode of the operator order that queued the
// package; it rides the wire so clients can attribute whatever the
// command does (module install, suicide) to that order.
type Package struct {
	Name    string
	Target  string // client ID; empty = all clients (news folder)
	Payload []byte
	Span    obs.Span
}

// Entry is one sealed stolen-data upload parked in entries/.
type Entry struct {
	ID        int
	ClientID  string
	Name      string
	Sealed    []byte
	At        time.Time
	Retrieved bool
}

// ClientRecord is the database row for a connecting client.
type ClientRecord struct {
	ID        string
	Type      ClientType
	FirstSeen time.Time
	LastSeen  time.Time
	Contacts  int
}

// Database is the server's MySQL-like bookkeeping store.
type Database struct {
	Clients   map[string]*ClientRecord
	PanelAuth map[string]string // user -> password hash (toy)
	Settings  map[string]string
}

// NewDatabase returns an empty database with default panel auth.
func NewDatabase() *Database {
	return &Database{
		Clients:   make(map[string]*ClientRecord),
		PanelAuth: map[string]string{"operator": "hash:46dff7..."},
		Settings:  map[string]string{"encryption": "pubkey-seal", "retention_minutes": "30"},
	}
}

// Server is one C&C node: a LAMP-style web server with the newsforyou
// store (paper, Fig. 5).
type Server struct {
	K  *sim.Kernel
	IP netsim.IP
	DB *Database
	// SealPub is the coordinator public key clients and the server use to
	// seal stolen data.
	SealPub *SealKey

	ads     map[string][]*Package
	news    []*Package
	entries []*Entry
	nextID  int

	// accessLog mimics the system logs LogWiper.sh destroys.
	accessLog []string
	// LogWiperRan records that the admin's setup script ran and deleted
	// itself.
	LogWiperRan bool

	// TotalEntryBytes counts sealed bytes ever parked (survives cleanup),
	// for the 5.5 GB/week measurement.
	TotalEntryBytes int64

	stopCleanup func()
}

// NewServer creates a C&C server bound at ip on the internet.
func NewServer(k *sim.Kernel, in *netsim.Internet, ip netsim.IP, sealPub *SealKey) *Server {
	s := &Server{
		K:       k,
		IP:      ip,
		DB:      NewDatabase(),
		SealPub: sealPub,
		ads:     make(map[string][]*Package),
	}
	in.BindServer(ip, s)
	return s
}

// ServeSim implements netsim.Handler.
func (s *Server) ServeSim(req *netsim.Request) *netsim.Response {
	s.accessLog = append(s.accessLog, fmt.Sprintf("%s %s %s from %s", s.K.Now().Format(time.RFC3339), req.Method, req.Path, req.Source))
	switch req.Path {
	case ClientPath:
		return s.serveClient(req)
	case PanelPath:
		// The panel is driven directly by the attack-center types; over
		// HTTP it only confirms liveness (mimicking an innocuous page).
		return netsim.OK([]byte("<html><body>news</body></html>"))
	default:
		// Disguised as an ordinary web server.
		return netsim.OK([]byte("<html><body>It works!</body></html>"))
	}
}

func (s *Server) serveClient(req *netsim.Request) *netsim.Response {
	clientID := req.Query["client"]
	if clientID == "" {
		return &netsim.Response{Status: 400}
	}
	s.touchClient(clientID, ClientType(req.Query["type"]))
	switch req.Query["cmd"] {
	case CmdGetNews:
		pkgs := s.takePackages(clientID)
		s.K.Metrics().Counter("cnc.news.serve").Inc()
		s.K.Trace().Emit(s.K.Now(), sim.CatC2, string(s.IP),
			fmt.Sprintf("GET_NEWS %s -> %d packages", clientID, len(pkgs)),
			obs.T("client", clientID), obs.Ti("packages", int64(len(pkgs))))
		return netsim.OK(encodePackages(pkgs))
	case CmdAddEntry:
		name := req.Query["name"]
		s.nextID++
		s.entries = append(s.entries, &Entry{
			ID: s.nextID, ClientID: clientID, Name: name,
			Sealed: append([]byte(nil), req.Body...), At: s.K.Now(),
		})
		s.TotalEntryBytes += int64(len(req.Body))
		s.K.Metrics().Counter("cnc.entry.add").Inc()
		s.K.Metrics().Histogram("cnc.entry.bytes", obs.ByteBuckets).Observe(float64(len(req.Body)))
		s.K.Trace().Emit(s.K.Now(), sim.CatExfil, string(s.IP),
			fmt.Sprintf("ADD_ENTRY %s %q (%d bytes)", clientID, name, len(req.Body)),
			obs.T("client", clientID), obs.T("entry", name), obs.Ti("bytes", int64(len(req.Body))))
		return netsim.OK([]byte("OK"))
	default:
		return &netsim.Response{Status: 400}
	}
}

func (s *Server) touchClient(id string, t ClientType) {
	rec, ok := s.DB.Clients[id]
	if !ok {
		rec = &ClientRecord{ID: id, Type: t, FirstSeen: s.K.Now()}
		s.DB.Clients[id] = rec
	}
	rec.LastSeen = s.K.Now()
	rec.Contacts++
}

// takePackages removes and returns everything queued for the client:
// its ads folder plus unconsumed broadcast news.
func (s *Server) takePackages(clientID string) []*Package {
	out := append([]*Package(nil), s.ads[clientID]...)
	delete(s.ads, clientID)
	rec := s.DB.Clients[clientID]
	// Broadcast news: deliver each package once per client, tracked by a
	// per-client high-water mark stored in Contacts-agnostic way. Keep it
	// simple: a per-client index in settings.
	key := "news_idx:" + clientID
	idx := 0
	if v, ok := s.DB.Settings[key]; ok {
		fmt.Sscanf(v, "%d", &idx)
	}
	for ; idx < len(s.news); idx++ {
		out = append(out, s.news[idx])
	}
	s.DB.Settings[key] = fmt.Sprintf("%d", idx)
	_ = rec
	return out
}

// PushAd queues a package for one specific client (the ads folder).
func (s *Server) PushAd(clientID string, p *Package) {
	p.Target = clientID
	s.ads[clientID] = append(s.ads[clientID], p)
}

// PushNews queues a broadcast package (the news folder).
func (s *Server) PushNews(p *Package) {
	p.Target = ""
	s.news = append(s.news, p)
}

// FetchEntries returns (and marks retrieved) all unretrieved sealed
// entries — the operator's download step. The payloads remain sealed.
func (s *Server) FetchEntries() []*Entry {
	var out []*Entry
	for _, e := range s.entries {
		if !e.Retrieved {
			e.Retrieved = true
			out = append(out, e)
		}
	}
	return out
}

// PendingEntries counts entries still on disk (retrieved or not).
func (s *Server) PendingEntries() int { return len(s.entries) }

// RunLogWiper is the admin's LogWiper.sh: it destroys the access log and
// deletes itself (paper, Fig. 5 discussion).
func (s *Server) RunLogWiper() {
	s.accessLog = nil
	s.LogWiperRan = true
	s.K.Trace().Add(s.K.Now(), sim.CatC2, string(s.IP), "LogWiper.sh: logs shredded, script deleted")
}

// AccessLogLen reports surviving access-log lines.
func (s *Server) AccessLogLen() int { return len(s.accessLog) }

// StartCleanup schedules the retention job: every interval, retrieved
// entries older than interval are removed ("stolen files ... cleaned up
// every 30 minutes", paper, Fig. 5 discussion).
func (s *Server) StartCleanup(interval time.Duration) {
	s.StopCleanup()
	s.stopCleanup = s.K.Every(interval, "cleanup:"+string(s.IP), func() {
		cutoff := s.K.Now().Add(-interval)
		kept := s.entries[:0]
		removed := 0
		for _, e := range s.entries {
			if e.Retrieved && e.At.Before(cutoff) {
				removed++
				continue
			}
			kept = append(kept, e)
		}
		s.entries = kept
		if removed > 0 {
			s.K.Trace().Add(s.K.Now(), sim.CatC2, string(s.IP), "retention job removed %d entries", removed)
		}
	})
}

// StopCleanup cancels the retention job.
func (s *Server) StopCleanup() {
	if s.stopCleanup != nil {
		s.stopCleanup()
		s.stopCleanup = nil
	}
}

// --- package wire encoding ---

func encodePackages(pkgs []*Package) []byte {
	var b bytes.Buffer
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(pkgs)))
	b.Write(tmp[:])
	for _, p := range pkgs {
		writeFrame(&b, []byte(p.Name))
		writeFrame(&b, []byte(p.Target))
		writeFrame(&b, p.Payload)
		var span [8]byte
		binary.LittleEndian.PutUint64(span[:], uint64(p.Span))
		b.Write(span[:])
	}
	return b.Bytes()
}

// ErrBadWire is returned for malformed package payloads.
var ErrBadWire = errors.New("cnc: malformed package encoding")

// DecodePackages parses the GET_NEWS response body.
func DecodePackages(raw []byte) ([]*Package, error) {
	if len(raw) < 4 {
		return nil, ErrBadWire
	}
	count := binary.LittleEndian.Uint32(raw)
	pos := 4
	if count > 4096 {
		return nil, fmt.Errorf("%w: %d packages", ErrBadWire, count)
	}
	out := make([]*Package, 0, count)
	for i := 0; i < int(count); i++ {
		name, n, err := readFrame(raw, pos)
		if err != nil {
			return nil, err
		}
		pos = n
		target, n, err := readFrame(raw, pos)
		if err != nil {
			return nil, err
		}
		pos = n
		payload, n, err := readFrame(raw, pos)
		if err != nil {
			return nil, err
		}
		pos = n
		if pos+8 > len(raw) {
			return nil, ErrBadWire
		}
		span := obs.Span(binary.LittleEndian.Uint64(raw[pos:]))
		pos += 8
		out = append(out, &Package{Name: string(name), Target: string(target), Payload: payload, Span: span})
	}
	if pos != len(raw) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadWire)
	}
	return out, nil
}

func writeFrame(b *bytes.Buffer, data []byte) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(data)))
	b.Write(tmp[:])
	b.Write(data)
}

func readFrame(raw []byte, pos int) ([]byte, int, error) {
	if pos+4 > len(raw) {
		return nil, 0, ErrBadWire
	}
	n := int(binary.LittleEndian.Uint32(raw[pos:]))
	pos += 4
	if n < 0 || pos+n > len(raw) {
		return nil, 0, ErrBadWire
	}
	out := make([]byte, n)
	copy(out, raw[pos:pos+n])
	return out, pos + n, nil
}
