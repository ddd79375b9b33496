package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// get issues GET url and returns the response when rumord answered 200;
// the caller closes its body. Any other status becomes the error rumord
// sent ({"error": ...}) or, failing that, the bare status.
func get(url string) (*http.Response, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return nil, apiError(resp.StatusCode, raw)
	}
	return resp, nil
}

// getJSON GETs url and decodes rumord's 200 answer into out.
func getJSON(url string, out any) error {
	resp, err := get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s: %w", resp.Request.URL.Path, err)
	}
	return nil
}

// apiError renders a daemon error body ({"error": ...}) or the bare status.
func apiError(code int, raw []byte) error {
	var apiErr struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
		return fmt.Errorf("rumord: %s", apiErr.Error)
	}
	return fmt.Errorf("rumord: status %d", code)
}
