package svc

import "syscall"

// oDirect is the open flag that takes a file's I/O past the page cache.
const oDirect = syscall.O_DIRECT
