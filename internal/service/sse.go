package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"rumornet/internal/obs/journal"
	"rumornet/internal/obs/trace"
)

// handleJobEvents serves GET /v1/jobs/{id}/events: it replays the job's
// flight-recorder history (oldest first; seq gaps reveal ring overwrites)
// and then — unless ?follow=0 — streams live entries as Server-Sent Events
// until the job's terminal entry, a client disconnect, or the journal being
// trimmed by eviction. Idle streams carry heartbeat comments every
// Config.SSEHeartbeat so proxies keep the connection open.
//
// Wire format: one SSE message per journal entry, with the entry's seq as
// the SSE id, its kind (lifecycle | progress | invariant) as the event
// name, and the JSON-marshaled entry as data. Heartbeats are comment lines
// and invisible to EventSource clients.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	follow := r.URL.Query().Get("follow") != "0"

	// Subscribe before inspecting the job again: the snapshot and the live
	// channel are registered atomically, so every entry is either in the
	// history or arrives on the channel — none are lost in between.
	history, ch, cancel := s.journal.Subscribe(id)
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	s.met.sseClients.Inc()
	defer s.met.sseClients.Dec()

	sawFinal := false
	for _, e := range history {
		writeSSE(w, e)
		sawFinal = sawFinal || e.Final
	}
	flusher.Flush()
	if !follow || sawFinal {
		return
	}
	// A terminal job whose history carries no Final entry had its journal
	// trimmed (or the final append is microseconds away); ending the replay
	// here beats waiting for an entry that may never come.
	if job, ok := s.Job(id); ok && job.Status.Terminal() {
		return
	}

	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				return // journal trimmed: the job's history is gone
			}
			writeSSE(w, e)
			// A burst flushes once, when whatever queued behind the entry
			// has been written too.
			if e.Final || len(ch) == 0 {
				flusher.Flush()
			}
			if e.Final {
				return
			}
		case <-hb.C:
			io.WriteString(w, ": heartbeat\n\n")
			flusher.Flush()
		}
	}
}

// writeSSE renders one journal entry as an SSE message. Marshal errors
// cannot happen (Entry is plain scalars) and are swallowed: a malformed
// frame would corrupt the whole stream.
func writeSSE(w io.Writer, e journal.Entry) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data)
}

// EventsDumpHandler dumps the whole flight recorder plus the finished
// trace spans as one JSON document. rumord mounts it at /debug/events on
// the opt-in debug listener, next to pprof — the crash-forensics
// counterpart to the per-job SSE stream.
func (s *Service) EventsDumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var jbuf bytes.Buffer
		if err := s.journal.WriteJSON(&jbuf); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Journal      json.RawMessage  `json:"journal"`
			Spans        []trace.SpanData `json:"spans"`
			SpansDropped int64            `json:"spans_dropped"`
		}{
			Journal:      json.RawMessage(jbuf.Bytes()),
			Spans:        s.tracer.Finished(),
			SpansDropped: s.tracer.Dropped(),
		})
	})
}
