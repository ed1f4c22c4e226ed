package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// DecodeJSON decodes a request body holding exactly one JSON value into v,
// strictly: at most maxBytes bytes, no unknown object fields, nothing but
// whitespace after the value. On failure it writes the error response
// itself and returns false: 413 when the body exceeds maxBytes, 400
// otherwise, with the message led by prefix (e.g. "invalid job spec").
// mwcd and mwcrouter decode every JSON request body through it.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, prefix string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Reading past the value must hit the end of the body; the read
		// itself may also run into the byte limit.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data after the JSON object")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		HTTPError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit))
		return false
	}
	HTTPError(w, http.StatusBadRequest, prefix+": "+err.Error())
	return false
}

// WriteJSON writes v as the indented JSON response body with the given
// status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// HTTPError writes the API's error shape, {"error": msg}, with the given
// status code.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]any{"error": msg})
}
