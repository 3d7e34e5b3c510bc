package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/fleet"
	"overhaul/internal/monitor"
	"overhaul/internal/workload"
)

// fleetBase anchors the virtual fleet timeline. Fleet sessions carry no
// clock — every event supplies its own instant — so the replay is
// byte-for-byte reproducible like the single-system dashboard.
var fleetBase = time.Date(2016, time.March, 1, 9, 0, 0, 0, time.UTC)

// runFleet boots a fleet of n sessions, replays `events` deterministic
// mix-driven events into each, and renders the fleet console: aggregate
// totals plus the busiest sessions, or one session's detail with
// -session, or the whole aggregation as JSON. With storeDir set, every
// session additionally sinks its decisions into one durable store —
// the per-session ring keeps only the last 64 decisions, the store
// keeps them all — and the -session detail reads the durable trail.
func runFleet(n int, events int, mixName string, sessionFilter uint64, jsonOut bool, storeDir string) int {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	f, err := fleet.New(fleet.Config{Policy: monitor.Policy{Enforce: true}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	var store *auditstore.FileStore
	var sinkStats auditstore.SinkStats
	if storeDir != "" {
		if store, err = auditstore.Open(storeDir, auditstore.Options{}); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		defer store.Close() // console exit; the replay already synced every record
	}
	for i := 0; i < n; i++ {
		s := f.CreateSession()
		if store != nil {
			s.SetAuditSink(auditstore.NewBatchSink(store, s.ID(), 1, &sinkStats).Sink())
		}
		pid, err := s.Spawn()
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		// Session i replays its stream on the shared virtual timeline;
		// the seed is the session index, so adding sessions never
		// changes earlier sessions' traffic.
		stream := mix.Stream(int64(i))
		at := fleetBase.UnixNano()
		for e := 0; e < events; e++ {
			ev := stream.Next()
			at += int64(ev.Gap)
			if ev.Notify {
				err = s.NotifyNanos(pid, at)
			} else {
				_, err = s.DecideNanos(pid, ev.Op, at)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "overhaul-top:", err)
				return 2
			}
		}
	}

	if store != nil && sinkStats.Errors.Load() > 0 {
		fmt.Fprintf(os.Stderr, "overhaul-top: %d of %d store appends failed\n",
			sinkStats.Errors.Load(), sinkStats.Appends.Load())
		return 2
	}

	if sessionFilter != 0 {
		return fleetSessionDetail(f, sessionFilter, store, jsonOut)
	}
	if jsonOut {
		return writeJSON(fleetSnapshotJSON(f))
	}
	fleetDashboard(f, mix.Name, events)
	if store != nil {
		if total, err := store.Count(); err == nil {
			fmt.Printf("store: %d decisions durable across %d sessions\n", total, n)
		}
	}
	return 0
}

// sessionRow is one session's line in the fleet table.
type sessionRow struct {
	ID           uint64             `json:"id"`
	Stats        fleet.SessionStats `json:"stats"`
	Degraded     bool               `json:"degraded"`
	LiveProcs    int                `json:"live_procs"`
	AuditRecords int                `json:"audit_records"`
}

// fleetJSON is the machine-readable fleet aggregation.
type fleetJSON struct {
	Fleet    fleet.FleetStats `json:"fleet"`
	Sessions []sessionRow     `json:"sessions"`
}

// collectRows snapshots every live session, sorted by session ID.
func collectRows(f *fleet.Fleet) []sessionRow {
	var rows []sessionRow
	f.ForEachSession(func(s *fleet.Session) {
		_, degraded := s.DegradedReason()
		rows = append(rows, sessionRow{
			ID:           s.ID(),
			Stats:        s.StatsSnapshot(),
			Degraded:     degraded,
			LiveProcs:    s.PIDCount(),
			AuditRecords: len(s.Audit()),
		})
	})
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	return rows
}

func fleetSnapshotJSON(f *fleet.Fleet) fleetJSON {
	return fleetJSON{Fleet: f.StatsSnapshot(), Sessions: collectRows(f)}
}

// fleetDashboard renders the aggregate view: fleet-wide totals and the
// busiest sessions by denial count — the tenants the operator should
// look at first, since sustained denials are the malware signature.
func fleetDashboard(f *fleet.Fleet, mixName string, events int) {
	st := f.StatsSnapshot()
	fmt.Printf("== fleet (%d sessions, mix=%s, %d events/session) ==\n", st.Sessions, mixName, events)
	fmt.Printf("totals: %d notifications, %d grants, %d denials, %d spawns, %d exits, %d audit drops\n",
		st.Notifications, st.Grants, st.Denials, st.Spawns, st.Exits, st.DroppedAudit)
	if st.Grants+st.Denials > 0 {
		fmt.Printf("deny rate: %.1f%%\n", 100*float64(st.Denials)/float64(st.Grants+st.Denials))
	}

	rows := collectRows(f)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Stats.Denials > rows[j].Stats.Denials })
	const top = 10
	fmt.Printf("== top sessions by denials ==\n")
	fmt.Printf("%8s %8s %8s %8s %8s %6s\n", "SESSION", "NOTIFY", "GRANT", "DENY", "ALERTS", "DROPS")
	for i, r := range rows {
		if i == top {
			fmt.Printf("… %d more sessions (use -json for all, -session <id> for one)\n", len(rows)-top)
			break
		}
		fmt.Printf("%8d %8d %8d %8d %8d %6d\n",
			r.ID, r.Stats.Notifications, r.Stats.Grants, r.Stats.Denials, r.Stats.Alerts, r.Stats.DroppedAudit)
	}
}

// fleetSessionDetail renders one session: its counters and audit
// trail. With a store attached, the trail is the session's durable
// record — everything the bounded ring evicted included — queried by
// session ID; without one, it is the ring's recent tail.
func fleetSessionDetail(f *fleet.Fleet, id uint64, store *auditstore.FileStore, jsonOut bool) int {
	s, ok := f.Session(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "overhaul-top: no session %d in this fleet\n", id)
		return 1
	}
	audit := s.Audit()
	var durable []auditstore.Record
	if store != nil {
		var err error
		if durable, err = auditstore.ScanAll(store, auditstore.Query{Session: id}); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
	}
	if jsonOut {
		return writeJSON(struct {
			Session sessionRow          `json:"session"`
			Audit   []monitor.Decision  `json:"audit"`
			Durable []auditstore.Record `json:"durable,omitempty"`
		}{
			Session: sessionRow{ID: s.ID(), Stats: s.StatsSnapshot(), LiveProcs: s.PIDCount(), AuditRecords: len(audit)},
			Audit:   audit,
			Durable: durable,
		})
	}
	st := s.StatsSnapshot()
	fmt.Printf("== session %d ==\n", id)
	fmt.Printf("counters: %d notifications, %d grants, %d denials, %d alerts, %d spawns, %d exits\n",
		st.Notifications, st.Grants, st.Denials, st.Alerts, st.Spawns, st.Exits)
	if store != nil {
		fmt.Printf("durable trail (%d records; ring kept %d, evicted %d):\n",
			len(durable), len(audit), st.DroppedAudit)
		printRecords(durable)
		return 0
	}
	fmt.Printf("audit (%d records kept, %d evicted):\n", len(audit), st.DroppedAudit)
	for _, d := range audit {
		verdict := "DENY "
		if d.Verdict == monitor.VerdictGrant {
			verdict = "GRANT"
		}
		fmt.Printf("  %s %-5s pid=%d op=%-5s %s\n",
			d.OpTime.Format("15:04:05.000"), verdict, d.PID, d.Op, d.Reason)
	}
	return 0
}
