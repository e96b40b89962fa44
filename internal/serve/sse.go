package serve

import (
	"fmt"
	"net/http"
)

// streamJob serves a job's lifecycle as Server-Sent Events: an immediate
// "status" event with the current snapshot, a "status" event per progress
// report or state change, and a final "status" event at the terminal state,
// after which the stream ends.
//
// An SSE stream is an attachment, not just a view: a watcher that
// disconnects while the job is still live cancels the job's context with
// ErrClientGone as the cause. Streamed jobs are interactive — nobody is
// left to consume the result, so the simulation stops within one device
// step (the serial loop polls the context once per step) and the key
// becomes immediately retryable. Clients that want
// fire-and-forget semantics poll instead of streaming.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotAcceptable, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	events, unsubscribe := j.subscribe()
	defer unsubscribe()

	writeEvent(w, statusJSON(j.status()))
	fl.Flush()

	for {
		select {
		case data := <-events:
			writeEvent(w, data)
			fl.Flush()
		case <-j.done:
			// Drain nothing: the terminal snapshot supersedes any queued
			// progress events.
			writeEvent(w, statusJSON(j.status()))
			fl.Flush()
			return
		case <-r.Context().Done():
			j.cancel(ErrClientGone)
			return
		}
	}
}

// writeEvent renders one SSE "status" event. data must be a single-line
// payload (JSON without indentation), which json.Marshal guarantees.
func writeEvent(w http.ResponseWriter, data []byte) {
	fmt.Fprintf(w, "event: status\ndata: %s\n\n", data)
}
