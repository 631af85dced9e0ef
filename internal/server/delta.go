package server

import (
	"errors"
	"net/http"
	"time"

	"xpathest"
	"xpathest/internal/guard"
)

// handleDelta applies a binary edit script (xpathest.EditScript.Encode
// wire format) to the document behind a /summarize-built summary and
// publishes the incrementally maintained successor. The successor is a
// new summary with a new ID, and the result cache keys on that ID, so
// no client is served an estimate of the pre-edit document.
//
// Only document-backed entries qualify: an uploaded or store-loaded
// summary has no document to edit and is rejected with 400. Edits to
// one name serialize; each script applies to the latest published
// summary.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !validName(name) {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "invalid summary name", "kind": "bad_request"})
		return
	}
	limit := maxDocumentBytes(s.cfg.Limits)
	body := http.MaxBytesReader(w, r.Body, limit)
	sc, err := xpathest.DecodeEditScript(body, limit)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			err = guard.Exceeded("edit script bytes", tooLarge.Limit, tooLarge.Limit+1)
		}
		writeError(w, err)
		return
	}

	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	e, ok := s.reg.get(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "summary not found: " + name, "kind": "not_found"})
		return
	}
	if e.sum == nil || e.doc == nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": "summary " + name + " is not document-backed; only summaries built by POST /summarize accept deltas",
			"kind":  "invalid_argument",
		})
		return
	}

	res, err := e.sum.Apply(sc)
	if err != nil {
		// A mid-script failure leaves the document on the applied prefix
		// with the served summary behind it; rebuild the served view from
		// the document so the name keeps answering coherently.
		if e.doc.Epoch() != e.sum.Epoch() {
			fresh := e.doc.BuildSummary(xpathest.SummaryOptions{})
			if s.store != nil {
				if perr := s.persist(r.Context(), name, fresh); perr != nil {
					s.cfg.Logger.Printf("server: delta %s: persisting resynced summary: %v", name, perr)
				}
			}
			s.reg.set(name, &entry{sum: fresh, doc: e.doc, loaded: time.Now()})
		}
		writeError(w, err)
		return
	}
	if s.store != nil {
		if err := s.persist(r.Context(), name, res.Summary); err != nil {
			// The edit is already applied to the document; publish the
			// maintained summary anyway so the served view matches it, and
			// surface the persistence failure to the caller.
			s.reg.set(name, &entry{sum: res.Summary, doc: e.doc, loaded: time.Now()})
			writeError(w, err)
			return
		}
	}
	s.reg.set(name, &entry{sum: res.Summary, doc: e.doc, loaded: time.Now()})
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":     name,
		"status":      "applied",
		"ops":         len(sc.Ops),
		"fast_ops":    res.FastOps,
		"rebuild_ops": res.RebuildOps,
		"epoch":       res.Summary.Epoch(),
		"elements":    e.doc.NumElements(),
	})
}
