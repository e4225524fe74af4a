//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package mem

import "syscall"

// mapFixed maps size bytes of zeroed, private, anonymous memory.
func mapFixed(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapFixed(b []byte) { syscall.Munmap(b) }
