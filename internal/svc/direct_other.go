//go:build !linux

package svc

// oDirect is 0 where there is no O_DIRECT: the append handle is buffered.
const oDirect = 0
