// Package blockdev defines the logical-block-address interface that SSDs
// present to hosts ("For backward-compatibility and faster adoption, SSDs
// present a logical block address (LBA) interface comparable to an HDD" —
// §1), plus a RAM-backed reference implementation and a tracing middleware
// used by workload replay and the file-system experiments.
package blockdev

import (
	"errors"
	"fmt"
)

// Errors returned by devices.
var (
	ErrOutOfBounds = errors.New("blockdev: access beyond device size")
	ErrUnaligned   = errors.New("blockdev: access not sector aligned")
)

// Device is a synchronous logical block device. Offsets and lengths are in
// bytes but must be sector-aligned; implementations may return richer errors
// wrapping the sentinel errors above.
type Device interface {
	// ReadAt fills p from the device starting at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at byte offset off.
	WriteAt(p []byte, off int64) error
	// Trim marks [off, off+length) as unused (TRIM/discard).
	Trim(off, length int64) error
	// Flush makes preceding writes durable.
	Flush() error
	// Size returns the device capacity in bytes.
	Size() int64
	// SectorSize returns the alignment unit in bytes.
	SectorSize() int
}

// CheckAccess validates that [off, off+n) is a legal, aligned access for a
// device of the given size and sector size. Implementations share it so all
// devices agree on error semantics.
func CheckAccess(size int64, sector int, off, n int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfBounds, off, n, size)
	}
	if off%int64(sector) != 0 || n%int64(sector) != 0 {
		return fmt.Errorf("%w: off=%d len=%d sector=%d", ErrUnaligned, off, n, sector)
	}
	return nil
}

// RAMDisk is a sparse in-memory Device, the baseline "ideal device" against
// which simulated SSD behaviour is compared and a correctness oracle in
// tests.
type RAMDisk struct {
	size    int64
	sector  int
	sectors map[int64][]byte
}

// NewRAMDisk creates a RAM disk of the given size and sector size. It panics
// if size is not a multiple of the sector size (a construction-time bug).
func NewRAMDisk(size int64, sector int) *RAMDisk {
	if sector <= 0 || size < 0 || size%int64(sector) != 0 {
		panic("blockdev: invalid RAMDisk dimensions")
	}
	return &RAMDisk{size: size, sector: sector, sectors: make(map[int64][]byte)}
}

// Size returns the capacity in bytes.
func (d *RAMDisk) Size() int64 { return d.size }

// SectorSize returns the sector size in bytes.
func (d *RAMDisk) SectorSize() int { return d.sector }

// ReadAt implements Device. Unwritten sectors read as zeros.
func (d *RAMDisk) ReadAt(p []byte, off int64) error {
	if err := CheckAccess(d.size, d.sector, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += d.sector {
		sec := (off + int64(i)) / int64(d.sector)
		if s, ok := d.sectors[sec]; ok {
			copy(p[i:i+d.sector], s)
		} else {
			clear(p[i : i+d.sector])
		}
	}
	return nil
}

// WriteAt implements Device.
func (d *RAMDisk) WriteAt(p []byte, off int64) error {
	if err := CheckAccess(d.size, d.sector, off, int64(len(p))); err != nil {
		return err
	}
	for i := 0; i < len(p); i += d.sector {
		sec := (off + int64(i)) / int64(d.sector)
		buf, ok := d.sectors[sec]
		if !ok {
			buf = make([]byte, d.sector)
			d.sectors[sec] = buf
		}
		copy(buf, p[i:i+d.sector])
	}
	return nil
}

// Trim implements Device by dropping whole sectors.
func (d *RAMDisk) Trim(off, length int64) error {
	if err := CheckAccess(d.size, d.sector, off, length); err != nil {
		return err
	}
	for i := int64(0); i < length; i += int64(d.sector) {
		delete(d.sectors, (off+i)/int64(d.sector))
	}
	return nil
}

// Flush implements Device (RAM is always "durable" here).
func (d *RAMDisk) Flush() error { return nil }

// PopulatedSectors returns how many sectors hold data, for tests asserting
// TRIM behaviour.
func (d *RAMDisk) PopulatedSectors() int { return len(d.sectors) }
