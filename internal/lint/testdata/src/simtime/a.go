// Fixture for the fence pass's clock and go rows: wall-clock reads and
// raw goroutines are violations; Duration arithmetic, constants, and
// conversions are not.
package simtime

import "time"

func spin() {}

func bad() {
	_ = time.Now()                 // want "wall-clock time.Now"
	time.Sleep(time.Second)        // want "wall-clock time.Sleep"
	<-time.After(time.Millisecond) // want "wall-clock time.After"
	_ = time.Since(time.Time{})    // want "wall-clock time.Since"
	_ = time.Tick(time.Second)     // want "wall-clock time.Tick"
	_ = time.NewTimer(time.Second) // want "wall-clock time.NewTimer"
	go spin()                      // want "raw go statement"
	go func() { _ = time.Now() }() // want "raw go statement" "wall-clock time.Now"
}

// durations exercises the false-positive guard: time.Duration values,
// arithmetic on them, and conversions never touch the wall clock.
func durations(d time.Duration) time.Duration {
	const tick = 10 * time.Millisecond
	total := d + tick
	total *= 2
	return time.Duration(float64(total) * 1.5)
}

// allowed exercises the escape hatch in both spellings.
func allowed() {
	go spin() //hanlint:allow fence the engine itself runs the baton-passing goroutine
	//hanlint:allow fence comment-above form
	go spin()
}
