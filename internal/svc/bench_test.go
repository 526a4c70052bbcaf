package svc

import "testing"

// BenchmarkRecordEncode is Append's processor work per placement: frame
// header, payload and checksum into a reused buffer. scripts/ci/allocguard.sh
// pins it at 0 allocs/op.
func BenchmarkRecordEncode(b *testing.B) {
	rec := benchRecord()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], &rec)
	}
	if len(buf) == 0 {
		b.Fatal("empty frame")
	}
}
