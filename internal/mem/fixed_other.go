//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package mem

import "errors"

// mapFixed is unavailable here; Fixed falls back to the Go heap.
func mapFixed(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFixed([]byte) {}
