package host

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pe"
	"repro/internal/pki"
	"repro/internal/sim"
	"repro/internal/usb"
)

func testKernel() *sim.Kernel {
	return sim.NewKernel(sim.WithSeed(7))
}

func testImage(name string) *pe.File {
	return &pe.File{
		Name: name, Machine: pe.MachineX86, Timestamp: t0,
		Sections: []pe.Section{{Name: ".text", Characteristics: pe.SecCode, Data: []byte(name + " body")}},
	}
}

func TestHostDefaults(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	if h.OS != Win7 || h.Arch != pe.MachineX86 {
		t.Fatalf("defaults: %v %v", h.OS, h.Arch)
	}
	if !h.Bootable() {
		t.Fatal("fresh host not bootable")
	}
	if h.Patched("MS10-046") {
		t.Fatal("fresh host unexpectedly patched")
	}
}

func TestExecuteDispatch(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	var gotImg string
	h.Dispatcher = func(hh *Host, p *Process, img *pe.File) {
		gotImg = img.Name
		if !p.Alive || p.PID == 0 {
			t.Error("bad process state in dispatcher")
		}
	}
	proc, err := h.Execute(testImage("dropper.exe"), false)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if gotImg != "dropper.exe" {
		t.Fatalf("dispatcher saw %q", gotImg)
	}
	if len(h.Processes()) != 1 {
		t.Fatalf("processes = %d", len(h.Processes()))
	}
	h.Kill(proc.PID)
	if len(h.Processes()) != 0 {
		t.Fatal("Kill did not remove process")
	}
}

func TestExecuteX64OnX86Fails(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001") // x86
	img := testImage("payload64.exe")
	img.Machine = pe.MachineX64
	if _, err := h.Execute(img, false); err == nil {
		t.Fatal("x64 image ran on x86 host")
	}
	h64 := New(k, "WS-064", WithArch(pe.MachineX64))
	if _, err := h64.Execute(img, false); err != nil {
		t.Fatalf("x64 on x64: %v", err)
	}
}

type blockAll struct{}

func (blockAll) Name() string                           { return "SimAV" }
func (blockAll) ScanImage(h *Host, img *pe.File) string { return "Trojan.Generic" }

type blockNone struct{}

func (blockNone) Name() string                           { return "SleepyAV" }
func (blockNone) ScanImage(h *Host, img *pe.File) string { return "" }

func TestSecurityProductBlocks(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	h.AddSecurity(blockNone{})
	h.AddSecurity(blockAll{})
	_, err := h.Execute(testImage("mal.exe"), false)
	if !errors.Is(err, ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if k.Trace().Count(sim.CatDefense) == 0 {
		t.Fatal("no defense trace")
	}
}

func TestDropAndExecuteFile(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	img := testImage("netinit.exe")
	if err := h.DropFile(`C:\Windows\System32\netinit.exe`, img, AttrHidden); err != nil {
		t.Fatalf("DropFile: %v", err)
	}
	ran := false
	h.Dispatcher = func(hh *Host, p *Process, got *pe.File) { ran = got.Name == "netinit.exe" }
	if _, err := h.ExecuteFile(`C:\Windows\System32\netinit.exe`, true); err != nil {
		t.Fatalf("ExecuteFile: %v", err)
	}
	if !ran {
		t.Fatal("dropped file did not dispatch")
	}
}

func TestServiceLifecycle(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	h.DropFile(`C:\Windows\System32\trksvr.exe`, testImage("TrkSvr.exe"), 0)
	h.InstallService("TrkSvr", `C:\Windows\System32\trksvr.exe`, true)
	if h.Service("trksvr") == nil {
		t.Fatal("service lookup case-insensitive failed")
	}
	if _, ok := h.Registry.Get(`HKLM\SYSTEM\CurrentControlSet\Services\TrkSvr\ImagePath`); !ok {
		t.Fatal("service not registered in registry")
	}
	ran := false
	h.Dispatcher = func(hh *Host, p *Process, img *pe.File) {
		ran = true
		if !p.System {
			t.Error("service did not run as SYSTEM")
		}
	}
	if err := h.StartService("TrkSvr"); err != nil {
		t.Fatalf("StartService: %v", err)
	}
	if !ran || !h.Service("TrkSvr").Running {
		t.Fatal("service did not run")
	}
	if err := h.StartService("ghost"); err == nil {
		t.Fatal("starting unknown service succeeded")
	}
}

func TestScheduledTaskFiresAtTime(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	h.DropFile(`C:\wiper.exe`, testImage("wiper.exe"), 0)
	var firedAt time.Time
	h.Dispatcher = func(hh *Host, p *Process, img *pe.File) { firedAt = k.Now() }
	trigger := k.Now().Add(48 * time.Hour)
	h.ScheduleTask("wipe", `C:\wiper.exe`, trigger)
	k.RunFor(24 * time.Hour)
	if !firedAt.IsZero() {
		t.Fatal("task fired early")
	}
	k.RunFor(48 * time.Hour)
	if !firedAt.Equal(trigger) {
		t.Fatalf("task fired at %v, want %v", firedAt, trigger)
	}
}

func TestPatchGate(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001", WithPatches("ms10-046"))
	if !h.Patched("MS10-046") {
		t.Fatal("WithPatches case-insensitivity failed")
	}
	h.ApplyPatch("MS10-061")
	if !h.Patched("ms10-061") {
		t.Fatal("ApplyPatch failed")
	}
}

func driverPKI(t testing.TB) (*pki.Store, *pki.Keypair, *pki.Certificate) {
	t.Helper()
	var s [32]byte
	s[0] = 42
	now := sim.Epoch
	root := pki.NewRoot("SimRoot", pki.HashStrong, s, now.Add(-time.Hour), 100*365*24*time.Hour)
	var s2 [32]byte
	s2[0] = 43
	key := pki.NewKeypair(s2)
	cert, err := root.Issue(now, pki.IssueRequest{
		Subject: "Eldos Corporation", Usages: pki.UsageDriverSign,
		Lifetime: 10 * 365 * 24 * time.Hour, PubKey: key.Public,
	})
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return pki.NewStore(root.Cert), key, cert
}

func TestLoadDriverSignedGrantsCaps(t *testing.T) {
	k := testKernel()
	store, key, cert := driverPKI(t)
	h := New(k, "WS-001", WithCertStore(store))
	drv := testImage("drdisk.sys")
	drv.Sections = append(drv.Sections, pe.Section{Name: CapSectionName, Data: []byte("rawdisk")})
	if err := pki.SignImage(drv, key, cert); err != nil {
		t.Fatalf("SignImage: %v", err)
	}
	if h.HasCap(CapRawDisk) {
		t.Fatal("capability present before driver load")
	}
	if err := h.WriteRawSector(0, make([]byte, SectorSize)); !errors.Is(err, ErrNoRawAccess) {
		t.Fatalf("raw write without driver: %v", err)
	}
	d, err := h.LoadDriver(drv)
	if err != nil {
		t.Fatalf("LoadDriver: %v", err)
	}
	if d.Signer != "Eldos Corporation" || !d.Caps[CapRawDisk] {
		t.Fatalf("driver = %+v", d)
	}
	if err := h.WriteRawSector(0, make([]byte, SectorSize)); err != nil {
		t.Fatalf("raw write with driver: %v", err)
	}
	if h.Bootable() {
		t.Fatal("host bootable after MBR overwrite with zeros")
	}
}

func TestLoadDriverUnsignedRejected(t *testing.T) {
	k := testKernel()
	store, _, _ := driverPKI(t)
	h := New(k, "WS-001", WithCertStore(store))
	drv := testImage("rootkit.sys")
	if _, err := h.LoadDriver(drv); !errors.Is(err, ErrUnsignedDriver) {
		t.Fatalf("err = %v, want ErrUnsignedDriver", err)
	}
}

func TestUSBLNKExploitGate(t *testing.T) {
	k := testKernel()
	payload := testImage("~wtr4132.tmp")
	raw, _ := payload.Marshal()

	d := usb.NewDrive("KINGSTON")
	d.Put("~wtr4132.tmp", raw, true)
	d.LNKs = []usb.LNK{
		{Name: "Copy of Shortcut to.lnk", OSTag: "win7", PayloadFile: "~wtr4132.tmp", Malicious: true},
		{Name: "Copy of Copy of Shortcut to.lnk", OSTag: "winxp", PayloadFile: "~wtr4132.tmp", Malicious: true},
	}

	// Unpatched Win7 host: exploited.
	h := New(k, "VICTIM", WithOS(Win7))
	ran := 0
	h.Dispatcher = func(hh *Host, p *Process, img *pe.File) { ran++ }
	h.InsertUSB(d)
	if err := h.BrowseRemovable(); err != nil {
		t.Fatalf("BrowseRemovable: %v", err)
	}
	if ran != 1 {
		t.Fatalf("payload ran %d times, want 1 (only matching-OS LNK)", ran)
	}

	// Patched host: safe.
	hp := New(k, "PATCHED", WithOS(Win7), WithPatches(MS10_046))
	hp.Dispatcher = func(hh *Host, p *Process, img *pe.File) { t.Error("payload ran on patched host") }
	hp.InsertUSB(d)
	if err := hp.BrowseRemovable(); err != nil {
		t.Fatalf("BrowseRemovable: %v", err)
	}

	// Wrong-OS host: LNKs don't match.
	hv := New(k, "VISTA", WithOS(WinVista))
	hv.Dispatcher = func(hh *Host, p *Process, img *pe.File) { t.Error("payload ran on mismatched OS") }
	hv.InsertUSB(d)
	hv.BrowseRemovable()
}

func TestUSBAutorunGate(t *testing.T) {
	k := testKernel()
	payload := testImage("autorun_payload.exe")
	raw, _ := payload.Marshal()
	d := usb.NewDrive("STICK")
	d.Put("setup.exe", raw, false)
	d.Autorun = &usb.Autorun{Exec: "setup.exe"}

	h := New(k, "AUTORUN-ON", WithAutorun(true))
	ran := false
	h.Dispatcher = func(hh *Host, p *Process, img *pe.File) { ran = true }
	h.InsertUSB(d)
	h.BrowseRemovable()
	if !ran {
		t.Fatal("autorun payload did not run")
	}

	h2 := New(k, "AUTORUN-OFF")
	h2.Dispatcher = func(hh *Host, p *Process, img *pe.File) { t.Error("autorun ran while disabled") }
	h2.InsertUSB(d)
	h2.BrowseRemovable()
}

func TestUSBInsertionHooksAndInternetSeen(t *testing.T) {
	k := testKernel()
	h := New(k, "GW", WithInternet(true))
	d := usb.NewDrive("STICK")
	d.HiddenDB = usb.NewHiddenStore()
	hooked := false
	h.OnUSBInsert = append(h.OnUSBInsert, func(hh *Host, dd *usb.Drive) { hooked = true })
	h.InsertUSB(d)
	if !hooked {
		t.Fatal("insertion hook did not fire")
	}
	if !d.HiddenDB.InternetSeen {
		t.Fatal("InternetSeen not set on connected host")
	}
	if got := h.RemoveUSB(); got != d || h.CurrentUSB() != nil {
		t.Fatal("RemoveUSB bookkeeping wrong")
	}
	if d.Insertions != 1 {
		t.Fatalf("Insertions = %d", d.Insertions)
	}
}

func TestBrowseWithoutDrive(t *testing.T) {
	h := New(testKernel(), "WS")
	if err := h.BrowseRemovable(); err == nil {
		t.Fatal("BrowseRemovable with no drive succeeded")
	}
}

func TestSeedDocumentsAndCheckWipe(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	total, failed := h.SeedDocuments("ali", 50)
	if total <= 0 || failed != 0 || h.FS.FileCount() < 50 {
		t.Fatalf("seeded %d bytes (%d failed), %d files", total, failed, h.FS.FileCount())
	}
	check := h.CheckWipe()
	if check.FilesWiped != 0 || !check.Bootable || !check.MBRIntact || check.WipedMarker {
		t.Fatalf("fresh host wipe check: %+v", check)
	}
	h.MarkWiped("test")
	if !h.CheckWipe().WipedMarker {
		t.Fatal("MarkWiped not reflected")
	}
}

func TestEventLog(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001")
	h.Logf(sim.CatExec, "svc", "hello %d", 42)
	log := h.EventLog()
	if len(log) != 1 || log[0].Message != "hello 42" || log[0].Source != "svc" {
		t.Fatalf("log = %+v", log)
	}
}

func TestProfileInfo(t *testing.T) {
	k := testKernel()
	h := New(k, "WS-001", WithDomain("ARAMCO"), WithOS(WinXP))
	h.SeedDocuments("u", 3)
	p := h.ProfileInfo()
	if p.ComputerName != "WS-001" || p.Domain != "ARAMCO" || p.OSVersion != "winxp" {
		t.Fatalf("profile = %+v", p)
	}
	if p.FileCount < 3 || p.TotalBytes <= 0 {
		t.Fatalf("profile inventory = %+v", p)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Set(`HKLM\Software\Foo`, "1")
	if v, ok := r.Get(`hklm\software\foo`); !ok || v != "1" {
		t.Fatal("case-insensitive get failed")
	}
	r.Set(`HKLM\Software\Bar`, "2")
	keys := r.Keys(`HKLM\Software`)
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
	r.Delete(`HKLM\SOFTWARE\foo`)
	if _, ok := r.Get(`HKLM\Software\Foo`); ok {
		t.Fatal("delete failed")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestMBRRoundTrip(t *testing.T) {
	m := &MBR{}
	copy(m.BootCode[:], "bootloader")
	m.Partitions[0] = Partition{Active: true, StartSector: 2048, Sectors: 1 << 20}
	sector := m.Marshal()
	if len(sector) != SectorSize {
		t.Fatalf("sector len = %d", len(sector))
	}
	got, err := ParseMBR(sector)
	if err != nil {
		t.Fatalf("ParseMBR: %v", err)
	}
	if !got.Partitions[0].Active || got.Partitions[0].StartSector != 2048 || got.Partitions[0].Sectors != 1<<20 {
		t.Fatalf("partitions = %+v", got.Partitions)
	}
}

func TestParseMBRRejectsWiped(t *testing.T) {
	if _, err := ParseMBR(make([]byte, SectorSize)); err == nil {
		t.Fatal("zeroed sector parsed as MBR")
	}
	if _, err := ParseMBR([]byte{1, 2, 3}); err == nil {
		t.Fatal("short sector parsed as MBR")
	}
}

func TestDiskSectorIO(t *testing.T) {
	d := NewDisk(100)
	if err := d.WriteSector(5, []byte("hello")); err != nil {
		t.Fatalf("WriteSector: %v", err)
	}
	s, err := d.ReadSector(5)
	if err != nil || string(s[:5]) != "hello" {
		t.Fatalf("ReadSector: %v %q", err, s[:5])
	}
	// Unwritten sectors read as zeros.
	s, _ = d.ReadSector(50)
	for _, b := range s {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
	if _, err := d.ReadSector(-1); !errors.Is(err, ErrSectorRange) {
		t.Fatalf("err = %v", err)
	}
	if err := d.WriteSector(100, nil); !errors.Is(err, ErrSectorRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestFreshDiskBootable(t *testing.T) {
	d := NewDisk(1 << 12)
	if !d.Bootable() {
		t.Fatal("fresh disk not bootable")
	}
	d.WriteSector(0, make([]byte, SectorSize))
	if d.Bootable() {
		t.Fatal("disk bootable after MBR zeroed")
	}
}
