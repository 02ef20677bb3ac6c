package main

import (
	"encoding/json"
	"errors"
	"log"

	"repro"
	"repro/internal/journal"
	"repro/runner"
)

// Journal record kinds. The journal package treats these as opaque; the
// daemon's contract is: a run whose last record is not terminal was
// still live (queued or running) when the process died, and is
// re-queued on the next boot.
const (
	// kindSubmit carries a journalSubmit payload: everything needed to
	// re-create the submission.
	kindSubmit journal.Kind = 1
	// kindStart is reserved for the start records older daemons wrote;
	// nothing writes it, and replay skips it.
	kindStart journal.Kind = 2
	// kindTerminal carries a journalTerminal payload.
	kindTerminal journal.Kind = 3
	// kindPlace carries a journalPlace payload: this node placed the run
	// on a peer (or re-placed it during failover). The latest place
	// record wins; a placer that reboots resumes watching — and, if the
	// owner is dead, failing over — every placement without a terminal.
	kindPlace journal.Kind = 4
	// kindSnapshot carries a repro.Checkpoint: a periodic restore point
	// from a CheckpointEvery chain, local or placed. On replay a
	// non-terminal local run resumes from its last snapshot instead of
	// from scratch; a placed run's failover restores from it.
	kindSnapshot journal.Kind = 5
)

// journalSubmit is the kindSubmit payload — the wire submission itself,
// so replay goes through the same parse/compile/validate path as a
// fresh request.
type journalSubmit struct {
	Program string     `json:"program"`
	Label   string     `json:"label,omitempty"`
	Tenant  string     `json:"tenant,omitempty"`
	Timeout string     `json:"timeout,omitempty"`
	Options runOptions `json:"options"`
}

// request is the inverse of submitRequest.record: the wire request that
// re-creates the journaled submission under run ID id — from scratch, or
// restore-and-continue from a snapshot. The newest snapshot beats any
// resume point baked into the journaled options, and its claim-quiescent
// state makes the resumed remainder bit-identical to never having died
// (the virtual-engine conformance suites pin this). Verify is dropped:
// the trace cannot observe pre-checkpoint iterations.
func (js journalSubmit) request(id string, snap *repro.Checkpoint) submitRequest {
	req := submitRequest{ID: id, Program: js.Program, Label: js.Label, Timeout: js.Timeout, Options: js.Options}
	if snap != nil {
		req.Options.Resume, req.Options.Verify = snap, false
	}
	return req
}

// journalTerminal is the kindTerminal payload. Checkpointed runs carry
// their snapshot, but replay does not serve it: a run that ended here is
// released on boot, so its ID answers 410 (DESIGN §12).
type journalTerminal struct {
	State      string            `json:"state"`
	Error      string            `json:"error,omitempty"`
	Checkpoint *repro.Checkpoint `json:"checkpoint,omitempty"`
}

// journalPlace is the kindPlace payload: where the run went plus the
// wire submission needed to re-place it if that owner dies.
type journalPlace struct {
	Node string        `json:"node"`
	Sub  journalSubmit `json:"sub"`
}

// appendRecord is the one journal write path: it appends (when the
// journal is on), logs failures, and tracks the last error for
// /healthz. A []byte payload is written as is (already marshaled),
// anything else is marshaled to JSON.
func (s *server) appendRecord(kind journal.Kind, id string, payload any) {
	if s.jw == nil {
		return
	}
	var data []byte
	var err error
	switch p := payload.(type) {
	case []byte:
		data = p
	default:
		data, err = json.Marshal(p)
	}
	if err == nil {
		err = s.jw.Append(kind, id, data)
	}
	s.jerr.Store(&journalErr{err: err})
	if err != nil {
		log.Printf("loopschedd: journal append kind %d %s: %v", kind, id, err)
	}
}

// journalErr boxes the last append outcome (nil error = healthy) so
// healthz can read it atomically.
type journalErr struct{ err error }

// onEvent is the daemon's consumer of the run-lifecycle stream
// (runner.Config.OnEvent): it journals each transition. Events arrive
// one at a time, in transition order, outside the runner's locks — the
// fsync stalls no status read — and Drain covers them, so a drained
// close has written every terminal record.
func (s *server) onEvent(ev runner.Event) {
	id := ev.Run.ID()
	switch ev.Kind {
	case runner.EventSubmitted:
		// The submission carried its wire form here (Submission.Record);
		// replay carries none, its runs' submit records being in the file
		// already. Submit returns after this append, so the record is
		// durable before the caller answers 201 and precedes every other
		// record of the run.
		if ev.Record != nil {
			s.appendRecord(kindSubmit, id, ev.Record)
		}
	case runner.EventSnapshot:
		s.appendRecord(kindSnapshot, id, ev.Run.Checkpoint())
	case runner.EventTerminal:
		term := journalTerminal{State: ev.Run.State().String(), Checkpoint: ev.Run.Checkpoint()}
		if _, err := ev.Run.Result(); err != nil {
			term.Error = err.Error()
		}
		s.appendRecord(kindTerminal, id, term)
	}
}

// replayJournal re-queues every run in recs — the journal's intact
// records, as the last process left it — whose last record is not
// terminal, under its original ID, resuming from its last journaled
// snapshot when one exists. A run whose submission no longer re-creates
// is logged and dropped rather than wedging boot. Runs this node placed
// elsewhere (kindPlace) are returned as placements for the cluster layer
// to re-adopt rather than re-queued locally. Every journaled ID stays
// taken, so fresh IDs number past it; of those not re-queued, only a run
// that ended here answers 410 — a dropped run or one placed elsewhere
// was never held by this life and answers 404.
func (s *server) replayJournal(recs []journal.Record) []*placement {
	type pending struct {
		sub      journalSubmit
		hasSub   bool
		terminal bool
		placedOn string
		placeSub journalSubmit
		snap     *repro.Checkpoint
		snapJS   []byte
	}
	byID := map[string]*pending{}
	var order []string
	row := func(id string) *pending {
		p := byID[id]
		if p == nil {
			p = &pending{}
			byID[id] = p
			order = append(order, id)
		}
		return p
	}
	for _, rec := range recs {
		switch rec.Kind {
		case kindSubmit:
			var sub journalSubmit
			if err := json.Unmarshal(rec.Data, &sub); err != nil {
				log.Printf("loopschedd: journal replay: bad submit payload for %s: %v", rec.ID, err)
				continue
			}
			if p := row(rec.ID); !p.hasSub {
				p.sub, p.hasSub = sub, true
			}
		case kindPlace:
			var pl journalPlace
			if err := json.Unmarshal(rec.Data, &pl); err != nil {
				log.Printf("loopschedd: journal replay: bad place payload for %s: %v", rec.ID, err)
				continue
			}
			// The latest placement wins: failover re-places under the same ID.
			p := row(rec.ID)
			p.placedOn, p.placeSub = pl.Node, pl.Sub
		case kindSnapshot:
			var ck repro.Checkpoint
			if err := json.Unmarshal(rec.Data, &ck); err != nil {
				log.Printf("loopschedd: journal replay: bad snapshot payload for %s: %v", rec.ID, err)
				continue
			}
			p := row(rec.ID)
			p.snap, p.snapJS = &ck, append([]byte(nil), rec.Data...)
		case kindTerminal:
			if p, ok := byID[rec.ID]; ok {
				p.terminal = true
			}
		}
	}
	replayed := 0
	var placements []*placement
	for _, id := range order {
		p := byID[id]
		local := p.placedOn == "" || p.placedOn == s.cfg.Cluster.Node
		if p.terminal && local {
			s.rn.MarkReleased(id)
			continue
		}
		s.rn.Reserve(id)
		if p.terminal {
			continue
		}
		if !local {
			placements = append(placements, &placement{
				id:     id,
				node:   p.placedOn,
				sub:    p.placeSub,
				ckpt:   p.snap,
				ckptJS: p.snapJS,
			})
			continue
		}
		if !p.hasSub {
			// A self-placement without its submit record (torn write):
			// nothing to re-queue from.
			log.Printf("loopschedd: journal replay: run %s has no submit record, dropping", id)
			continue
		}
		req := p.sub.request(id, p.snap)
		sub, err := s.buildSubmission(req)
		if err != nil {
			log.Printf("loopschedd: journal replay: run %s no longer submits: %v", id, err)
			continue
		}
		// Tenant attribution survives the restart: the replayed run counts
		// against its tenant's quotas and fair share like any fresh one.
		sub.ID, sub.Tenant = id, p.sub.Tenant
		if _, err := s.rn.Submit(sub); err != nil {
			if errors.Is(err, runner.ErrQueueFull) {
				log.Printf("loopschedd: journal replay: queue full, dropping run %s", id)
				continue
			}
			log.Printf("loopschedd: journal replay: run %s: %v", id, err)
			continue
		}
		replayed++
	}
	if replayed > 0 {
		log.Printf("loopschedd: journal replay re-queued %d run(s) from %s", replayed, s.cfg.JournalPath)
	}
	return placements
}
