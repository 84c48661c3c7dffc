package flash

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"aquoman/internal/obs"
)

// readPage reads one whole page of f: a one-page batch.
func readPage(f *File, page int64, who Requester) ([]byte, error) {
	var b Batch
	b.Add(f, page)
	err := b.Read(nil, who)
	return b.Page(0), err
}

func TestCreateOpenRemove(t *testing.T) {
	d := NewDevice()
	f := d.Create("tbl/col0")
	if f.Name() != "tbl/col0" {
		t.Fatalf("Name = %q", f.Name())
	}
	if !d.Exists("tbl/col0") {
		t.Fatal("Exists = false after Create")
	}
	got, err := d.Open("tbl/col0")
	if err != nil || got != f {
		t.Fatalf("Open: %v, %v", got, err)
	}
	if _, err := d.Open("missing"); err == nil {
		t.Fatal("Open(missing) succeeded")
	}
	d.Remove("tbl/col0")
	if d.Exists("tbl/col0") {
		t.Fatal("Exists = true after Remove")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KB
	f.Append(payload, Host)
	if f.Size() != int64(len(payload)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(payload))
	}
	buf := make([]byte, len(payload))
	if n, _ := f.ReadAt(buf, 0, Host); n != len(payload) {
		t.Fatalf("ReadAt = %d", n)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("content mismatch")
	}
	// Partial read past EOF returns available prefix.
	n, _ := f.ReadAt(buf, int64(len(payload))-10, Host)
	if n != 10 {
		t.Fatalf("tail read = %d, want 10", n)
	}
}

func TestWriteAtExtends(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.WriteAt([]byte("xyz"), 100, Host)
	if f.Size() != 103 {
		t.Fatalf("Size = %d, want 103", f.Size())
	}
	buf := make([]byte, 3)
	f.ReadAt(buf, 100, Host)
	if string(buf) != "xyz" {
		t.Fatalf("content = %q", buf)
	}
}

func TestPageAccounting(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, 3*PageSize), Aquoman)
	d.ResetStats()

	// A sequential full read touches 3 pages, no random seeks.
	buf := make([]byte, 3*PageSize)
	f.ReadAt(buf, 0, Aquoman)
	s := d.Stats()
	if s.PagesRead[Aquoman] != 3 {
		t.Fatalf("PagesRead = %d, want 3", s.PagesRead[Aquoman])
	}
	if s.PagesReadRandom[Aquoman] != 0 {
		t.Fatalf("PagesReadRandom = %d, want 0", s.PagesReadRandom[Aquoman])
	}
	if s.PagesRead[Host] != 0 {
		t.Fatal("host pages counted for aquoman read")
	}

	// Re-reading page 0 after finishing is a backward seek.
	readPage(f, 0, Aquoman)
	s = d.Stats()
	if s.PagesReadRandom[Aquoman] != 1 {
		t.Fatalf("PagesReadRandom = %d, want 1", s.PagesReadRandom[Aquoman])
	}

	// Page-skipping forward (the Table Reader skipping masked pages) is a
	// seek too.
	readPage(f, 2, Aquoman)
	s = d.Stats()
	if s.PagesReadRandom[Aquoman] != 2 {
		t.Fatalf("PagesReadRandom = %d, want 2", s.PagesReadRandom[Aquoman])
	}
	if s.TotalPagesRead() != 5 {
		t.Fatalf("TotalPagesRead = %d, want 5", s.TotalPagesRead())
	}
}

func TestSequentialPageReadsNotRandom(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, 10*PageSize), Host)
	d.ResetStats()
	for p := int64(0); p < 10; p++ {
		readPage(f, p, Aquoman)
	}
	s := d.Stats()
	if s.PagesRead[Aquoman] != 10 || s.PagesReadRandom[Aquoman] != 0 {
		t.Fatalf("stats = %+v, want 10 sequential reads", s)
	}
}

func TestWriteAccounting(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, PageSize+1), Host)
	s := d.Stats()
	if s.PagesWritten[Host] != 2 {
		t.Fatalf("PagesWritten = %d, want 2", s.PagesWritten[Host])
	}
	if s.BytesWritten(Host) != 2*PageSize {
		t.Fatalf("BytesWritten = %d", s.BytesWritten(Host))
	}
}

func TestStatsSub(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, PageSize), Host)
	before := d.Stats()
	readPage(f, 0, Aquoman)
	diff := d.Stats().Sub(before)
	if diff.PagesRead[Aquoman] != 1 || diff.PagesWritten[Host] != 0 {
		t.Fatalf("diff = %+v", diff)
	}
}

func TestPagesSpanned(t *testing.T) {
	cases := []struct {
		off, n, want int64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, PageSize, 1},
		{0, PageSize + 1, 2},
		{PageSize - 1, 2, 2},
		{PageSize, PageSize, 1},
		{100, 3 * PageSize, 4},
	}
	for _, c := range cases {
		if got := PagesSpanned(c.off, c.n); got != c.want {
			t.Errorf("PagesSpanned(%d,%d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, 64*PageSize), Host)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; i < 100; i++ {
				f.ReadAt(buf, int64((g*100+i)%64)*PageSize, Host)
			}
		}(g)
	}
	wg.Wait()
	if got := d.Stats().PagesRead[Host]; got != 800 {
		t.Fatalf("PagesRead = %d, want 800", got)
	}
}

// Property: content written at arbitrary offsets reads back exactly.
func TestQuickWriteReadAt(t *testing.T) {
	f := func(chunks [][]byte, offs []uint16) bool {
		d := NewDevice()
		file := d.Create("q")
		ref := make([]byte, 0)
		for i, c := range chunks {
			if i >= len(offs) {
				break
			}
			off := int64(offs[i])
			end := off + int64(len(c))
			if int64(len(ref)) < end {
				ref = append(ref, make([]byte, end-int64(len(ref)))...)
			}
			copy(ref[off:end], c)
			file.WriteAt(c, off, Host)
		}
		got := make([]byte, len(ref))
		file.ReadAt(got, 0, Host)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRandomAccounting(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")

	// Appends are one sequential stream, even across partial pages.
	f.Append(make([]byte, 3*PageSize), Host)
	f.Append(make([]byte, 100), Host)
	f.Append(make([]byte, 100), Host)
	s := d.Stats()
	if s.PagesWritten[Host] != 5 || s.PagesWrittenRandom[Host] != 0 {
		t.Fatalf("append stats = %d written / %d random, want 5/0",
			s.PagesWritten[Host], s.PagesWrittenRandom[Host])
	}

	// An in-place update behind the stream is one seek.
	f.WriteAt(make([]byte, 10), 0, Host)
	// A forward jump past the stream is one seek too.
	f.WriteAt(make([]byte, 10), 10*PageSize, Host)
	s = d.Stats()
	if s.PagesWritten[Host] != 7 || s.PagesWrittenRandom[Host] != 2 {
		t.Fatalf("update stats = %d written / %d random, want 7/2",
			s.PagesWritten[Host], s.PagesWrittenRandom[Host])
	}

	// Streams are per requester: AQUOMAN's first write is sequential.
	if s.PagesWrittenRandom[Aquoman] != 0 {
		t.Fatal("aquoman write stream tainted by host writes")
	}
	before := d.Stats()
	f.Append(make([]byte, PageSize), Aquoman) // file ends mid-page: spans 2 pages
	diff := d.Stats().Delta(before)
	if diff.PagesWritten[Aquoman] != 2 || diff.PagesWrittenRandom[Aquoman] != 0 {
		t.Fatalf("delta = %+v", diff)
	}
	if diff.PagesWritten[Host] != 0 {
		t.Fatal("host pages in aquoman delta")
	}
}

func TestObserveMirrorsCounters(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(make([]byte, 2*PageSize), Host)

	reg := obs.NewRegistry()
	d.Observe(reg)
	// Binding seeds the counters from the accumulated stats.
	s := reg.Snapshot()
	if p, ok := s.Get("flash_pages_written_total", "requester", "host"); !ok || p.Value != 2 {
		t.Fatalf("seeded written = %+v, %v", p, ok)
	}
	if p, ok := s.Get("flash_files"); !ok || p.Value != 1 {
		t.Fatalf("files gauge = %+v, %v", p, ok)
	}

	buf := make([]byte, PageSize)
	f.ReadAt(buf, PageSize, Aquoman)
	f.ReadAt(buf, 0, Aquoman) // backward seek: one random read
	f.WriteAt(buf, 0, Host)
	s = reg.Snapshot()
	checks := []struct {
		name, req string
		want      int64
	}{
		{"flash_pages_read_total", "aquoman", 2},
		{"flash_pages_read_random_total", "aquoman", 1},
		{"flash_pages_read_total", "host", 0},
		{"flash_pages_written_total", "host", 3},
		{"flash_pages_written_random_total", "host", 1},
	}
	for _, c := range checks {
		if p, ok := s.Get(c.name, "requester", c.req); !ok || p.Value != c.want {
			t.Fatalf("%s{requester=%q} = %+v (ok=%v), want %d", c.name, c.req, p, ok, c.want)
		}
	}

	// Detaching stops mirroring; the registry keeps its last values.
	d.Observe(nil)
	f.ReadAt(buf, 0, Aquoman)
	after := reg.Snapshot()
	if p, _ := after.Get("flash_pages_read_total", "requester", "aquoman"); p.Value != 2 {
		t.Fatalf("detached counter moved to %d", p.Value)
	}
}

// scriptErr is a minimal transient/permanent fault error for driving the
// retry loop without importing internal/faults (which imports this pkg).
type scriptErr struct{ transient bool }

func (e *scriptErr) Error() string   { return "scripted fault" }
func (e *scriptErr) Transient() bool { return e.transient }

// scriptInjector fails the first failN attempts on every page.
type scriptInjector struct {
	failN     int
	transient bool
	stall     int64 // nanoseconds of SlowRead stall per attempt, 0 = none
	attempts  map[int64]int
}

func (s *scriptInjector) ReadFault(file string, page int64, who Requester, attempt int) (stall time.Duration, err error) {
	if s.attempts == nil {
		s.attempts = make(map[int64]int)
	}
	if s.stall > 0 {
		return time.Duration(s.stall), nil
	}
	if s.attempts[page] < s.failN {
		s.attempts[page]++
		return 0, &scriptErr{transient: s.transient}
	}
	return 0, nil
}

func TestRetryAbsorbsTransientFaults(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	payload := bytes.Repeat([]byte("x"), 2*PageSize)
	f.Append(payload, Host)
	// 3 transient failures per page < default budget of 4.
	d.SetFaults(&scriptInjector{failN: 3, transient: true})
	buf := make([]byte, len(payload))
	n, err := f.ReadAt(buf, 0, Host)
	if err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("content mismatch after retries")
	}
	st := d.Stats()
	if st.ReadFaults[Host] != 6 || st.ReadRetries[Host] != 6 {
		t.Fatalf("faults/retries = %d/%d, want 6/6", st.ReadFaults[Host], st.ReadRetries[Host])
	}
	if st.ReadsFailed[Host] != 0 {
		t.Fatalf("ReadsFailed = %d", st.ReadsFailed[Host])
	}
	if st.StallNanos[Host] == 0 {
		t.Fatal("backoff stall not accounted")
	}
	if st.PagesRead[Host] != 2 {
		t.Fatalf("PagesRead = %d, want 2 (retries must not double-count)", st.PagesRead[Host])
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(bytes.Repeat([]byte("x"), PageSize), Host)
	d.SetRetryPolicy(RetryPolicy{Budget: 2, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond})
	d.SetFaults(&scriptInjector{failN: 10, transient: true})
	if _, err := f.ReadAt(make([]byte, 8), 0, Host); err == nil {
		t.Fatal("read succeeded past exhausted budget")
	}
	st := d.Stats()
	if st.ReadsFailed[Host] != 1 || st.ReadRetries[Host] != 2 || st.ReadFaults[Host] != 3 {
		t.Fatalf("failed/retries/faults = %d/%d/%d, want 1/2/3",
			st.ReadsFailed[Host], st.ReadRetries[Host], st.ReadFaults[Host])
	}
}

func TestPermanentFaultNotRetried(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(bytes.Repeat([]byte("x"), PageSize), Host)
	d.SetFaults(&scriptInjector{failN: 1, transient: false})
	if _, err := f.ReadAt(make([]byte, 8), 0, Host); err == nil {
		t.Fatal("permanent fault did not fail the read")
	}
	st := d.Stats()
	if st.ReadRetries[Host] != 0 {
		t.Fatalf("permanent fault was retried %d times", st.ReadRetries[Host])
	}
	if st.ReadsFailed[Host] != 1 {
		t.Fatalf("ReadsFailed = %d", st.ReadsFailed[Host])
	}
}

func TestSlowReadAccounted(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(bytes.Repeat([]byte("x"), PageSize), Host)
	d.SetFaults(&scriptInjector{stall: int64(2 * time.Millisecond)})
	buf := make([]byte, PageSize)
	if n, err := f.ReadAt(buf, 0, Aquoman); err != nil || n != PageSize {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	st := d.Stats()
	if st.SlowReads[Aquoman] != 1 {
		t.Fatalf("SlowReads = %d", st.SlowReads[Aquoman])
	}
	if st.StallNanos[Aquoman] != int64(2*time.Millisecond) {
		t.Fatalf("StallNanos = %d", st.StallNanos[Aquoman])
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	p := RetryPolicy{Budget: 10, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	want := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		800 * time.Microsecond, time.Millisecond, time.Millisecond,
	}
	for i, w := range want {
		if got := p.backoff(i); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestRemoveResetsFileStats(t *testing.T) {
	d := NewDevice()
	f := d.Create("tbl/col0")
	f.Append(bytes.Repeat([]byte("x"), 3*PageSize), Host)
	buf := make([]byte, 3*PageSize)
	if _, err := f.ReadAt(buf, 0, Host); err != nil {
		t.Fatal(err)
	}
	if got := d.FileStats("tbl/col0").PagesRead[Host]; got != 3 {
		t.Fatalf("FileStats PagesRead = %d, want 3", got)
	}
	d.Remove("tbl/col0")
	if got := d.FileStats("tbl/col0"); got != (Stats{}) {
		t.Fatalf("stale stats survive Remove: %+v", got)
	}
	// A re-created file of the same name starts from a clean ledger.
	f2 := d.Create("tbl/col0")
	f2.Append(bytes.Repeat([]byte("y"), PageSize), Host)
	if _, err := f2.ReadAt(buf[:PageSize], 0, Host); err != nil {
		t.Fatal(err)
	}
	fs := d.FileStats("tbl/col0")
	if fs.PagesRead[Host] != 1 || fs.PagesWritten[Host] != 1 {
		t.Fatalf("re-created file inherited stale counts: %+v", fs)
	}
	// Create over a live file also resets attribution.
	d.Create("tbl/col0")
	if got := d.FileStats("tbl/col0"); got != (Stats{}) {
		t.Fatalf("stale stats survive Create: %+v", got)
	}
}

func TestFaultMetricsObserved(t *testing.T) {
	d := NewDevice()
	f := d.Create("a")
	f.Append(bytes.Repeat([]byte("x"), PageSize), Host)
	reg := obs.NewRegistry()
	d.Observe(reg)
	d.SetFaults(&scriptInjector{failN: 2, transient: true})
	if _, err := f.ReadAt(make([]byte, 8), 0, Host); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("flash_read_retries_total", "requester", "host").Value(); got != 2 {
		t.Fatalf("flash_read_retries_total = %d, want 2", got)
	}
	if got := reg.Counter("flash_read_faults_total", "requester", "host").Value(); got != 2 {
		t.Fatalf("flash_read_faults_total = %d, want 2", got)
	}
}
