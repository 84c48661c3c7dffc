package flash_test

import (
	"bytes"
	"errors"
	"testing"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

const (
	fuzzPages = 140 // more than one command queue's worth
	fuzzSize  = fuzzPages*flash.PageSize + 123
)

// scriptedFault fails the device reads of one page: their first `attempts`
// attempts with a transient error, or every attempt with a permanent one.
type scriptedFault struct {
	page      int64
	attempts  int
	permanent bool
}

// injector scripts the fault into the device's own injector.
func (s *scriptedFault) injector() *faults.Injector {
	inj := faults.New(faults.Config{})
	inj.Hook = func(_ string, page int64, _ flash.Requester, attempt int) (faults.Kind, bool) {
		if page != s.page {
			return 0, false
		}
		if s.permanent {
			return faults.Permanent, true
		}
		return faults.Transient, attempt < s.attempts
	}
	return inj
}

// rangeModel is what a byte-range read has to amount to, worked out from a
// plain []byte: the bytes delivered, and the device traffic — pages, seeks
// (one per discontinuity in the requester's stream), fault attempts — of
// the pages that are not resident (resident == nil: no cache, every page is
// a device read).
type rangeModel struct {
	data     []byte
	resident map[int64]bool
	fault    *scriptedFault
	budget   int
	next     int64 // the stream's next sequential page; -1 = none yet

	pages, seeks, faults, retries, failed int64
}

// read models ReadAtCtx(p, off): the bytes it delivers and whether it fails.
func (m *rangeModel) read(off int64, n int) (want []byte, fails bool) {
	end := min(off+int64(n), int64(len(m.data)))
	if n == 0 || off >= end {
		return nil, false
	}
	for first := off / flash.PageSize; first*flash.PageSize < end; first += flash.QueueDepth {
		for page := first; page < first+flash.QueueDepth && page*flash.PageSize < end; page++ {
			if m.resident[page] {
				continue
			}
			if f := m.fault; f != nil && page == f.page {
				switch {
				case f.permanent:
					m.faults, m.failed, fails = m.faults+1, m.failed+1, true
				case f.attempts > m.budget:
					m.faults, m.retries, m.failed, fails = m.faults+int64(m.budget)+1, m.retries+int64(m.budget), m.failed+1, true
				default:
					m.faults, m.retries = m.faults+int64(f.attempts), m.retries+int64(f.attempts)
				}
				if fails {
					continue
				}
			}
			if m.next >= 0 && (page > m.next || page < m.next-1) {
				m.seeks++
			}
			m.next = page + 1
			m.pages++
			if m.resident != nil {
				m.resident[page] = true
			}
		}
		if fails {
			return m.data[off:max(off, first*flash.PageSize)], true
		}
	}
	return m.data[off:end], false
}

func (m *rangeModel) check(t *testing.T, what string, dev *flash.Device) {
	t.Helper()
	const who = flash.Aquoman
	st := dev.Stats()
	got := [5]int64{st.PagesRead[who], st.PagesReadRandom[who], st.ReadFaults[who], st.ReadRetries[who], st.ReadsFailed[who]}
	want := [5]int64{m.pages, m.seeks, m.faults, m.retries, m.failed}
	if got != want {
		t.Fatalf("%s: device counted pages/seeks/faults/retries/failed = %v, the model says %v", what, got, want)
	}
}

// FuzzFlashReadRange: two byte-range reads, one after the other, on a device
// with no cache and on one behind a cache big enough to keep everything,
// with at most one scripted page fault. Each read delivers the model's
// bytes; the first — cold on both — leaves the two devices with the same
// Stats; and after the second, which behind the cache goes to the device
// only for what the first left out, each device's Stats are its model's.
func FuzzFlashReadRange(f *testing.F) {
	const ps = flash.PageSize
	f.Add(uint32(0), uint32(0), uint32(100), uint32(3*ps+7), int16(-1), uint8(0))              // unaligned
	f.Add(uint32(0), uint32(0), uint32(fuzzSize-100), uint32(5000), int16(-1), uint8(0))       // straddles EOF
	f.Add(uint32(0), uint32(0), uint32(ps/2), uint32(135*ps), int16(-1), uint8(0))             // more than QueueDepth pages
	f.Add(uint32(2*ps), uint32(ps), uint32(0), uint32(fuzzSize), int16(-1), uint8(0))          // aligned, whole file, after a seek
	f.Add(uint32(10*ps), uint32(3*ps), uint32(5*ps+1), uint32(15*ps), int16(-1), uint8(0))     // the second read's misses lie either side of the first
	f.Add(uint32(0), uint32(0), uint32(ps), uint32(8*ps), int16(4), uint8(2))                  // transient, absorbed
	f.Add(uint32(0), uint32(0), uint32(ps), uint32(8*ps), int16(4), uint8(9))                  // transient, budget exhausted
	f.Add(uint32(3*ps), uint32(ps), uint32(0), uint32(135*ps), int16(130), uint8(255))         // permanent, in the second batch
	f.Add(uint32(fuzzSize+ps), uint32(10), uint32(fuzzSize), uint32(1), int16(-1), uint8(0))   // past the end
	f.Add(uint32(7*ps), uint32(2*ps), uint32(7*ps), uint32(2*ps), int16(7), uint8(255))        // the same failing read twice
	f.Add(uint32(20*ps+5), uint32(100), uint32(19*ps), uint32(4*ps), int16(-1), uint8(0))      // back over the page the stream ended on
	f.Add(uint32(127*ps), uint32(3*ps), uint32(0), uint32(fuzzSize+ps), int16(128), uint8(1))  // batch boundary
	f.Add(uint32(0), uint32(fuzzSize), uint32(64*ps), uint32(ps), int16(64), uint8(255))       // a hit never meets the fault
	f.Add(uint32(ps-1), uint32(2), uint32(ps-1), uint32(ps+2), int16(-1), uint8(0))            // two bytes, two pages
	f.Add(uint32(50*ps), uint32(ps), uint32(40*ps), uint32(30*ps), int16(60), uint8(255))      // hole and fault in one fill
	f.Add(uint32(50*ps), uint32(ps), uint32(40*ps+9), uint32(30*ps), int16(45), uint8(4))      // the whole budget, absorbed
	f.Add(uint32(139*ps), uint32(ps), uint32(139*ps), uint32(2*ps), int16(140), uint8(255))    // the short last page
	f.Add(uint32(0), uint32(1), uint32(0), uint32(0), int16(-1), uint8(0))                     // empty read
	f.Add(uint32(0), uint32(ps), uint32(2*ps), uint32(ps), int16(-1), uint8(0))                // forward skip
	f.Add(uint32(0), uint32(2*ps), uint32(0), uint32(2*ps), int16(1), uint8(255))              // fails, then is half resident
	f.Add(uint32(5*ps), uint32(130*ps), uint32(0), uint32(fuzzSize), int16(-1), uint8(0))      // misses at both ends of a long hit
	f.Add(uint32(5*ps+1), uint32(130*ps), uint32(1), uint32(fuzzSize), int16(132), uint8(255)) // and a fault among the hits' batch
	f.Fuzz(func(t *testing.T, off1, len1, off2, len2 uint32, faultPage int16, attempts uint8) {
		content := make([]byte, fuzzSize)
		for i := range content {
			content[i] = byte(i ^ i>>8 ^ i>>16)
		}
		var fault *scriptedFault
		if faultPage >= 0 && attempts > 0 {
			fault = &scriptedFault{page: int64(faultPage), attempts: int(attempts), permanent: attempts == 255}
		}
		type side struct {
			name  string
			dev   *flash.Device
			file  *flash.File
			model *rangeModel
		}
		var sides [2]side
		for i, name := range []string{"uncached", "cached"} {
			dev := flash.NewDevice()
			file := dev.Create("f")
			file.Append(content, flash.Host)
			m := &rangeModel{data: content, fault: fault, budget: dev.RetryPolicy().Budget, next: -1}
			if name == "cached" {
				dev.SetPageCache(sched.NewPageCache(2 * fuzzSize))
				m.resident = map[int64]bool{}
			}
			if fault != nil {
				dev.SetFaults(fault.injector())
			}
			sides[i] = side{name, dev, file, m}
		}
		reads := [2]struct {
			off int64
			n   int
		}{
			{int64(off1 % (fuzzSize + 2*ps)), int(len1 % (fuzzSize + 2*ps))},
			{int64(off2 % (fuzzSize + 2*ps)), int(len2 % (fuzzSize + 2*ps))},
		}
		for r, rd := range reads {
			for _, s := range sides {
				want, fails := s.model.read(rd.off, rd.n)
				buf := make([]byte, rd.n)
				n, err := s.file.ReadAtCtx(nil, buf, rd.off, flash.Aquoman)
				var fe *faults.Error
				if fails != (err != nil) || (err != nil && !errors.As(err, &fe)) {
					t.Fatalf("%s read %d [%d,+%d): err = %v, the model fails = %v", s.name, r, rd.off, rd.n, err, fails)
				}
				if n != len(want) || !bytes.Equal(buf[:n], want) {
					t.Fatalf("%s read %d [%d,+%d): %d bytes, want %d; or they differ from the model's", s.name, r, rd.off, rd.n, n, len(want))
				}
				s.model.check(t, s.name, s.dev)
			}
			if a, b := sides[0].dev.Stats(), sides[1].dev.Stats(); r == 0 && a != b {
				t.Fatalf("a cold cache changed the device's traffic:\nuncached %+v\ncached   %+v", a, b)
			}
		}
	})
}
