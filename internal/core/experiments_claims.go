package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/malware/flame"
	"repro/internal/malware/shamoon"
	"repro/internal/malware/stuxnet"
	"repro/internal/netsim"
	"repro/internal/plc"
	"repro/internal/sim"
	"repro/internal/usb"
	"repro/internal/users"
)

// RunC1ZeroDays verifies the "four zero-day exploits" claim: MS10-046
// (LNK), MS10-061 (spooler), MS10-073 and MS10-092 (EoP) all fire in a
// single campaign, and each is individually blocked by its patch.
func RunC1ZeroDays(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 0})
	if err != nil {
		return nil, err
	}
	defer sc.Plant.Stop()
	lan := sc.LAN
	// Victim A: everything unpatched -> LNK + MS10-073 EoP.
	// Victim B: MS10-073 patched -> falls back to MS10-092.
	// Victim C: reached over the network -> MS10-061 spooler.
	a := sc.Engineer
	b := w.AddHost(lan, "VICTIM-B", host.WithOS(host.Win7), host.WithShares(true), host.WithPatches(stuxnet.MS10_073))
	c := w.AddHost(lan, "VICTIM-C", host.WithOS(host.Win7), host.WithShares(true))
	_ = c

	if err := sc.Deliver(); err != nil { // LNK on A (user context -> EoP 073)
		return nil, err
	}
	// Deliver to B by LNK as well (user context -> EoP 092).
	b.InsertUSB(sc.Delivery)
	if err := b.BrowseRemovable(); err != nil {
		return nil, err
	}
	// Let the spooler spread reach C.
	if err := w.K.RunFor(48 * time.Hour); err != nil {
		return nil, err
	}

	zd := sc.Stuxnet.Stats.ZeroDaysUsed()
	res := &Result{
		ID:    "C1",
		Title: "Four zero-day exploits in one campaign",
		Paper: "MS10-046, MS10-061, MS10-073, MS10-092 — \"an unprecedented set of four zero-day exploits\"",
	}
	res.metric("distinct_zero_days", float64(len(zd)), "exploits")
	res.metric("hosts_infected", float64(sc.Stuxnet.InfectedCount()), "hosts")
	res.notef("zero-days fired: %s", strings.Join(zd, ", "))

	// Patch gates: a fully patched host resists every vector.
	hardened := w.AddHost(lan, "HARDENED", host.WithOS(host.Win7), host.WithShares(true),
		host.WithPatches(stuxnet.MS10_046, stuxnet.MS10_061, stuxnet.MS10_073, stuxnet.MS10_092))
	hardened.InsertUSB(sc.Delivery)
	if err := hardened.BrowseRemovable(); err != nil {
		return nil, err
	}
	if err := w.K.RunFor(48 * time.Hour); err != nil {
		return nil, err
	}
	res.metric("fully_patched_host_resisted", boolMetric(!sc.Stuxnet.Infected("HARDENED")), "bool")
	res.Pass = len(zd) == 4 && a != nil && !sc.Stuxnet.Infected("HARDENED")
	res.summaryf("all %d zero-days fired (%s); %d hosts infected; fully patched host resisted every vector",
		len(zd), strings.Join(zd, ", "), sc.Stuxnet.InfectedCount())
	res.CaptureObs(w.K)
	return res, nil
}

// RunC2Centrifuge verifies the frequency-attack physics claims: the
// 807–1210 Hz trigger band, the 1410 -> 2 -> 1064 Hz profile destroying
// machines, and the replayed normal readings blinding operator and safety
// system while the attack runs.
func RunC2Centrifuge(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	// Control: identical plant without malware runs clean for a week.
	control := plc.NewPlant(w.K, plc.PlantConfig{Name: "control", MachinesPerDrive: 6})
	if err := w.K.RunFor(7 * 24 * time.Hour); err != nil {
		return nil, err
	}
	controlDestroyed := control.DestroyedCount()
	controlStress := 0.0
	for _, m := range control.Centrifuges() {
		controlStress += m.Stress
	}
	control.Stop()

	// Attack run.
	sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 0, MachinesPerDrive: 6})
	if err != nil {
		return nil, err
	}
	defer sc.Plant.Stop()
	if err := w.K.RunFor(time.Hour); err != nil {
		return nil, err
	}
	if err := sc.Deliver(); err != nil {
		return nil, err
	}
	if err := w.K.RunFor(40 * time.Minute); err != nil {
		return nil, err
	}
	blind := sc.Plant.Operator.AllNormal() && !sc.Plant.Safety.Tripped
	if err := w.K.RunFor(3 * time.Hour); err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "C2",
		Title: "Centrifuge frequency attack (1410/2/1064 Hz)",
		Paper: "trigger 807-1210 Hz; excursions to 1410 then 2 then 1064 Hz destroy machines; operator and safety system see recorded normal values",
	}
	res.metric("control_week_destroyed", float64(controlDestroyed), "machines")
	res.metric("control_week_total_stress", controlStress, "stress")
	res.metric("attack_destroyed", float64(sc.Plant.DestroyedCount()), "machines")
	res.metric("attack_waves", float64(sc.Stuxnet.Stats.AttacksLaunched), "waves")
	res.metric("monitors_blind_during_attack", boolMetric(blind), "bool")
	res.metric("normal_hz", plc.NormalHz, "Hz")
	res.metric("attack_high_hz", plc.AttackHighHz, "Hz")
	res.metric("attack_low_hz", plc.AttackLowHz, "Hz")
	res.Pass = controlDestroyed == 0 && controlStress == 0 &&
		sc.Plant.DestroyedCount() > 0 && blind
	res.summaryf("control week: 0 destroyed, 0 stress; attack destroyed %d machines in %d wave(s) with monitors blind",
		sc.Plant.DestroyedCount(), sc.Stuxnet.Stats.AttacksLaunched)
	res.CaptureObs(w.K)
	return res, nil
}

// RunC3Targeting verifies the selectivity claim: the payload fires only
// against a Profibus CP with the Finnish/Iranian drive pair.
func RunC3Targeting(run *Run) (*Result, error) {
	type variant struct {
		name    string
		vendors []string
		cpType  string
	}
	variants := []variant{
		{"natanz-match", []string{plc.VendorFinnish, plc.VendorIranian}, ""},
		{"wrong-vendors", []string{"Siemens", "ABB"}, ""},
		{"no-profibus", []string{plc.VendorFinnish, plc.VendorIranian}, "CP 443-1 ETHERNET"},
	}
	res := &Result{
		ID:    "C3",
		Title: "Stuxnet payload selectivity (hardware fingerprint)",
		Paper: "triggers only on Profibus CP; damaging payload only with the two frequency-converter vendors",
	}
	pass := true
	matchDestroyed := 0
	for i, v := range variants {
		w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		sc, err := BuildNatanz(w, NatanzOptions{OfficeHosts: 0, DriveVendors: v.vendors, CPType: v.cpType, MachinesPerDrive: 4})
		if err != nil {
			return nil, err
		}
		if err := w.K.RunFor(time.Hour); err != nil {
			return nil, err
		}
		if err := sc.Deliver(); err != nil {
			return nil, err
		}
		if err := w.K.RunFor(6 * time.Hour); err != nil {
			return nil, err
		}
		destroyed := sc.Plant.DestroyedCount()
		res.metric(v.name+"_destroyed", float64(destroyed), "machines")
		res.metric(v.name+"_payload_armed", boolMetric(sc.Stuxnet.Stats.PayloadArmed), "bool")
		switch v.name {
		case "natanz-match":
			matchDestroyed = destroyed
			pass = pass && destroyed > 0 && sc.Stuxnet.Stats.PayloadArmed
		default:
			pass = pass && destroyed == 0 && !sc.Stuxnet.Stats.PayloadArmed
		}
		sc.Plant.Stop()
		res.CaptureObs(w.K)
	}
	res.Pass = pass
	res.notef("only the matching plant is damaged; others stay dormant or untouched")
	res.summaryf("matching plant armed and lost %d machines; wrong-vendor and no-Profibus variants stayed dormant with 0 destroyed",
		matchDestroyed)
	return res, nil
}

// RunC4FlameSize verifies the size claims: ~900 KB bare-bones installer
// growing to ~20 MB fully deployed via C&C module downloads.
func RunC4FlameSize(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 1, DocsPerHost: 1, Domains: 10, ServerIPs: 2,
		BeaconEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	bare := sc.Flame.DeployedBytes(sc.Patient0.Name)
	for _, m := range flame.DownloadableModules {
		if err := sc.Flame.PushModuleAll(m); err != nil {
			return nil, err
		}
	}
	if err := w.K.RunFor(3 * time.Hour); err != nil {
		return nil, err
	}
	full := sc.Flame.DeployedBytes(sc.Patient0.Name)

	res := &Result{
		ID:    "C4",
		Title: "Flame size: bare-bones vs fully deployed",
		Paper: "900 KB bare-bones; ~20 MB when fully deployed; modules downloaded and updated from C&C",
	}
	res.metric("bare_bytes", float64(bare), "bytes")
	res.metric("deployed_bytes", float64(full), "bytes")
	res.metric("growth_ratio", float64(full)/float64(bare), "x")
	res.metric("modules_installed", float64(sc.Flame.Agent(sc.Patient0.Name).InstalledCount()), "modules")
	res.Pass = bare > 700*1024 && bare < 1200*1024 && full > 15<<20 && full < 25<<20
	res.summaryf("%d KB bare-bones grew to %.1f MB (%0.1fx) after %d modules arrived over C&C",
		bare/1024, float64(full)/(1<<20), float64(full)/float64(bare),
		sc.Flame.Agent(sc.Patient0.Name).InstalledCount())
	res.CaptureObs(w.K)
	return res, nil
}

// RunC5ExfilVolume measures one week of exfiltration volume landing on
// the C&C servers — the paper reports 5.5 GB on one server in a week; our
// synthetic corpus reproduces the *continuous multi-megabyte* shape.
func RunC5ExfilVolume(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, MuteTrace: true})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{
		Hosts: 12, DocsPerHost: 150, Domains: 10, ServerIPs: 2,
		BeaconEvery: 4 * time.Hour, CollectEvery: 12 * time.Hour,
		Microphones: true,
	})
	if err != nil {
		return nil, err
	}
	for _, h := range sc.Hosts[1:] {
		if _, err := h.Execute(sc.Flame.MainImage, true); err != nil {
			return nil, err
		}
	}
	// The operator reviews metadata daily and tasks every reported file.
	tasked := map[string]bool{}
	w.K.Every(24*time.Hour, "operator-review", func() {
		op := sc.Center.Operator()
		op.CollectAll()
		n, err := sc.Center.Coordinator().DecryptAll()
		if err != nil || n == 0 {
			return
		}
		for _, doc := range sc.Center.Coordinator().Archive() {
			text := string(doc.Data)
			if !strings.HasPrefix(text, "jimmy: ") {
				continue
			}
			path := strings.Fields(text)[1]
			key := doc.ClientID + "|" + path
			if tasked[key] {
				continue
			}
			tasked[key] = true
			op.PushCommand(doc.ClientID, flame.PkgSteal, []byte(path))
		}
	})
	if err := w.K.RunFor(7 * 24 * time.Hour); err != nil {
		return nil, err
	}

	total := sc.Center.TotalStolenBytes()
	perServer := total / int64(len(sc.Center.Servers))
	res := &Result{
		ID:    "C5",
		Title: "Weekly exfiltration volume",
		Paper: "5.5 GB of stolen data on one sample C&C server in one week",
	}
	res.metric("total_stolen_bytes_week", float64(total), "bytes")
	res.metric("per_server_bytes_week", float64(perServer), "bytes")
	res.metric("documents_stolen", float64(sc.Flame.Stats.DocumentsStolen), "docs")
	res.metric("metadata_records", float64(sc.Flame.Stats.MetadataRecords), "records")
	res.metric("audio_captures", float64(sc.Flame.Stats.AudioCaptures), "clips")
	res.Pass = total > 20<<20 && sc.Flame.Stats.DocumentsStolen > 100
	res.notef("synthetic corpus is smaller than a real ministry's; the shape — continuous two-stage exfil — is what reproduces")
	res.summaryf("%.1f MB landed on the servers in one simulated week (%d documents, %d audio clips); continuous two-stage shape reproduced",
		float64(total)/(1<<20), sc.Flame.Stats.DocumentsStolen, sc.Flame.Stats.AudioCaptures)
	res.CaptureObs(w.K)
	return res, nil
}

// RunC6Suicide verifies the SUICIDE claim: after the broadcast command,
// forensics finds zero artefacts on previously infected machines.
func RunC6Suicide(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 5, DocsPerHost: 10, Domains: 10, ServerIPs: 2,
		BeaconEvery: 2 * time.Hour})
	if err != nil {
		return nil, err
	}
	for _, h := range sc.Hosts[1:] {
		if _, err := h.Execute(sc.Flame.MainImage, true); err != nil {
			return nil, err
		}
	}
	if err := w.K.RunFor(12 * time.Hour); err != nil {
		return nil, err
	}
	artefactsBefore := 0
	for _, h := range sc.Hosts {
		artefactsBefore += flame.ArtefactsPresent(h)
	}
	infectedBefore := sc.Flame.InfectedCount()

	sc.Flame.PushSuicideAll()
	if err := w.K.RunFor(6 * time.Hour); err != nil {
		return nil, err
	}
	artefactsAfter := 0
	for _, h := range sc.Hosts {
		artefactsAfter += flame.ArtefactsPresent(h)
	}

	res := &Result{
		ID:    "C6",
		Title: "SUICIDE: complete self-removal",
		Paper: "locates every file, removes it, overwrites to prevent recovery; no active infections afterwards",
	}
	res.metric("infected_before", float64(infectedBefore), "hosts")
	res.metric("artefacts_before", float64(artefactsBefore), "artefacts")
	res.metric("artefacts_after", float64(artefactsAfter), "artefacts")
	res.metric("live_agents_after", float64(sc.Flame.InfectedCount()), "agents")
	res.metric("suicides_completed", float64(sc.Flame.Stats.SuicidesCompleted), "hosts")
	res.Pass = infectedBefore == 5 && artefactsBefore > 0 && artefactsAfter == 0 && sc.Flame.InfectedCount() == 0
	res.summaryf("%d artefacts across %d infected hosts dropped to %d after the broadcast; 0 live agents remain",
		artefactsBefore, infectedBefore, artefactsAfter)
	res.CaptureObs(w.K)
	return res, nil
}

// RunC7AramcoScale reproduces the 30,000-workstation destruction on the
// partitioned multi-site world (DESIGN.md §14): six site kernels — the
// headquarters hub plus five regional offices — saturate over their own
// shares after a cross-site carry, then every machine wipes at the
// hardcoded trigger, stops booting, and reports home to the hub through
// the epoch mailboxes.
func RunC7AramcoScale(run *Run) (*Result, error) {
	return runAramco(run, run.Seed, 30000, aramcoSiteCount, run.partitions(), 0, false, users.MixNone, true)
}

// RunC8JPEGBug verifies the coding-mistake claim: wiped files contain only
// the small upper fragment of the JPEG, against the intended full
// overwrite (the ablation).
func RunC8JPEGBug(run *Run) (*Result, error) {
	var kernels []*sim.Kernel
	trial := func(bug bool) (fragBytes float64, fullOverwrite bool, err error) {
		w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, Start: shamoon.AramcoTrigger.Add(-2 * time.Hour)})
		if err != nil {
			return 0, false, err
		}
		kernels = append(kernels, w.K)
		b := bug
		sc, err := BuildAramco(w, AramcoOptions{Workstations: 1, DocsPerHost: 20, JPEGBug: &b})
		if err != nil {
			return 0, false, err
		}
		if err := w.K.RunUntil(shamoon.AramcoTrigger.Add(time.Hour)); err != nil {
			return 0, false, err
		}
		h := sc.Hosts[0]
		sizes := map[int]int{}
		for _, f := range h.FS.Glob(`c:\users`) {
			sizes[f.Size()]++
		}
		if len(sizes) == 1 {
			for sz := range sizes {
				return float64(sz), sz > shamoon.JPEGFragmentLen, nil
			}
		}
		return -1, true, nil
	}
	buggyFrag, buggyFull, err := trial(true)
	if err != nil {
		return nil, err
	}
	fixedFrag, fixedFull, err := trial(false)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "C8",
		Title: "JPEG overwrite bug (partial fragment only)",
		Paper: "files overwritten only by the small upper part of the JPEG image due to a coding mistake",
	}
	res.metric("buggy_overwrite_bytes", buggyFrag, "bytes")
	res.metric("buggy_writes_full_image", boolMetric(buggyFull), "bool")
	res.metric("fixed_overwrite_uniform_size", fixedFrag, "bytes")
	res.metric("fixed_preserves_file_size", boolMetric(!fixedFull || fixedFrag < 0), "bool")
	res.Pass = buggyFrag == shamoon.JPEGFragmentLen && !buggyFull
	res.notef("buggy wiper leaves every file exactly %d bytes; correct wiper spans original sizes", shamoon.JPEGFragmentLen)
	res.summaryf("buggy wiper left every file exactly %.0f bytes (the JPEG fragment); corrected wiper preserves original sizes",
		buggyFrag)
	res.CaptureObs(kernels...)
	return res, nil
}

// RunC9Reporter verifies the reporter telemetry claim: an HTTP GET
// carrying the domain name, overwrite count, IP address, and f1.inf.
func RunC9Reporter(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed, Start: shamoon.AramcoTrigger.Add(-4 * time.Hour)})
	if err != nil {
		return nil, err
	}
	sc, err := BuildAramco(w, AramcoOptions{Workstations: 3, DocsPerHost: 15})
	if err != nil {
		return nil, err
	}
	if err := w.K.RunUntil(shamoon.AramcoTrigger.Add(time.Hour)); err != nil {
		return nil, err
	}
	res := &Result{
		ID:    "C9",
		Title: "Shamoon reporter telemetry",
		Paper: "HTTP GET with the infected system's domain name, number of overwritten files, IP address, and the f1.inf list",
	}
	res.metric("reports_received", float64(len(sc.Reports)), "reports")
	ok := len(sc.Reports) > 0
	fieldsOK := true
	for _, rep := range sc.Reports {
		if rep.Method != "GET" || rep.Query["mydata"] != "ARAMCO" ||
			rep.Query["uid"] == "" || rep.Query["state"] == "" || rep.Query["state"] == "0" ||
			len(rep.Body) == 0 {
			fieldsOK = false
		}
	}
	res.metric("all_reports_carry_four_fields", boolMetric(ok && fieldsOK), "bool")
	res.Pass = ok && fieldsOK
	res.summaryf("%d reports received, each a GET carrying domain, overwrite count, IP, and the f1.inf list",
		len(sc.Reports))
	res.CaptureObs(w.K)
	return res, nil
}

// RunC10AirGap verifies the hidden-USB-database claim: documents from a
// disconnected zone reach the C&C once the stick revisits a connected
// infected host.
func RunC10AirGap(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 1, DocsPerHost: 5, Domains: 10, ServerIPs: 2})
	if err != nil {
		return nil, err
	}
	connected := sc.Patient0
	connected.AutorunEnabled = true

	agLAN := w.NewLAN("protected-zone", "10.99.0", true)
	protectedHost := w.AddHost(agLAN, "PROTECTED", host.WithAutorun(true))
	protectedHost.SeedDocuments("scientist", 40)

	stick := usb.NewDrive("COURIER")
	connected.InsertUSB(stick)
	connected.RemoveUSB()
	protectedHost.InsertUSB(stick)
	if err := protectedHost.BrowseRemovable(); err != nil {
		return nil, err
	}
	parked := 0
	if stick.HiddenDB != nil {
		parked = stick.HiddenDB.Len()
	}
	protectedHost.RemoveUSB()
	connected.InsertUSB(stick)

	op := sc.Center.Operator()
	op.CollectAll()
	decrypted, err := sc.Center.Coordinator().DecryptAll()
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "C10",
		Title: "Air-gap exfiltration via hidden USB database",
		Paper: "hidden database on USB sticks ferries leaked documents out of protected (no-internet) environments",
	}
	res.metric("protected_host_infected", boolMetric(sc.Flame.Agent("PROTECTED") != nil), "bool")
	res.metric("documents_parked_on_stick", float64(parked), "docs")
	res.metric("documents_reaching_center", float64(decrypted), "docs")
	res.metric("ferried_total", float64(sc.Flame.Stats.AirGapDocsFerried), "docs")
	res.Pass = parked > 0 && sc.Flame.Stats.AirGapDocsFerried == parked && decrypted >= parked
	res.summaryf("%d documents parked in the stick's hidden database, all %d ferried out and decrypted at the center",
		parked, sc.Flame.Stats.AirGapDocsFerried)
	res.CaptureObs(w.K)
	return res, nil
}

// RunC11Bluetooth verifies the BEETLEJUICE claim: the infected machine
// beacons as discoverable and exfiltrates the nearby device inventory.
func RunC11Bluetooth(run *Run) (*Result, error) {
	w, err := NewWorld(WorldConfig{Run: run, Seed: run.Seed})
	if err != nil {
		return nil, err
	}
	sc, err := BuildEspionage(w, EspionageOptions{Hosts: 2, DocsPerHost: 2, Domains: 10, ServerIPs: 2,
		Bluetooth: true, BeaconEvery: time.Hour, CollectEvery: 2 * time.Hour})
	if err != nil {
		return nil, err
	}
	office := "riyadh-office"
	for i, h := range sc.Hosts {
		w.Radio.PlaceHost(h, office)
		_ = i
	}
	for i := 0; i < 4; i++ {
		w.Radio.PlaceDevice(office, &netsim.BTDevice{
			Name: fmt.Sprintf("Phone-%d", i+1), Kind: "phone", Owner: fmt.Sprintf("owner%d", i+1),
		})
	}
	if err := sc.Flame.PushModuleAll(flame.ModBeetlejuice); err != nil {
		return nil, err
	}
	if err := w.K.RunFor(12 * time.Hour); err != nil {
		return nil, err
	}

	op := sc.Center.Operator()
	op.CollectAll()
	if _, err := sc.Center.Coordinator().DecryptAll(); err != nil {
		return nil, err
	}
	inventoried := map[string]bool{}
	for _, doc := range sc.Center.Coordinator().Archive() {
		text := string(doc.Data)
		if strings.Contains(text, "beetlejuice: device=") {
			inventoried[text] = true
		}
	}

	res := &Result{
		ID:    "C11",
		Title: "BEETLEJUICE bluetooth reconnaissance",
		Paper: "enumerates devices around the infected machine and turns itself into a discoverable beacon",
	}
	res.metric("bt_scans", float64(sc.Flame.Stats.BluetoothScans), "scans")
	res.metric("infected_host_beaconing", boolMetric(w.Radio.IsBeaconing(sc.Patient0)), "bool")
	res.metric("distinct_device_sightings", float64(len(inventoried)), "records")
	res.Pass = sc.Flame.Stats.BluetoothScans > 0 && w.Radio.IsBeaconing(sc.Patient0) && len(inventoried) >= 4
	res.summaryf("%d bluetooth scans inventoried %d distinct nearby devices; infected machine beacons as discoverable",
		sc.Flame.Stats.BluetoothScans, len(inventoried))
	res.CaptureObs(w.K)
	return res, nil
}
