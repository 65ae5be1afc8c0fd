package imaging

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"image/color"

	"repro/internal/bufpool"
)

// SJPG is a real lossy image codec standing in for JPEG, and the one stored
// image format. The encoder converts RGB to YCbCr, 2x2-subsamples the chroma
// planes, quantizes each plane by a quality-derived shift, delta-predicts rows,
// and codes the planes one after another (planes.go). Like JPEG, its output
// size depends strongly on image content: smooth images compress an order of
// magnitude better than noisy ones.
//
// A container holds L scans, 1 ≤ L ≤ MaxScans, and every prefix of whole scans
// decodes to an image, so that a server slices a stored object to a fidelity
// without re-encoding it — one progressive record per sample, as Progressive
// Compressed Records keep. Scan 0 holds the three quantized planes
// right-shifted by L−1 extra bits; scan j > 0 holds the j-th refinement bit of
// every value as a bit plane a plane: value i in bit i&7 of byte i>>3, the pad
// bits of the last byte zero. Decoding k scans reconstructs
// the planes at the quality's shift plus L−k; decoding all L scans gives the
// same pixels whatever L is.
//
// A scan's codes are cut into units, so that a crop decodes only the units it
// reads. A unit of scan 0 is a strip-band: stripCols luma columns of bandRows
// luma rows (chroma: half as many of each), its Y, Cb and Cr values in turn,
// each plane's row by row. Within it a value predicts from its left
// neighbour, the first of a row from the one above, and the first of all from
// the middle of its plane's values (middles), so that it needs nothing from
// outside itself. A unit of a refinement scan is a band across the whole
// width: its bytes of each bit plane in turn, 2W (chroma: ⌈W/2⌉). The index
// says where each unit's codes start:
//
//	0..14   header: magic, version, quality, W, H (big-endian), L
//	...     uvarint N, then N bytes of index: for each scan its CRC32-C (4
//	        bytes, big-endian), the bytes of its three planes' tables, and
//	        each of its units' length in bits (uvarints)
//	...     the L scans, each its three planes' tables (0: stored) and then
//	        its units' codes, one after another, zero-padded to a byte
//
// A scan's length is its tables' and its units' bytes, a stored plane's part
// of a unit its values, eight bits each.
const (
	sjpgMagic   = "SJPG"
	sjprMagic   = "SJPR"                // versions 1–3 kept progressive scans in a container of their own
	sjpgVersion = 5                     // 4 had bands across the whole width, 3 no scans, 2 no bands, 1 DEFLATE blocks
	rowsFlag    = 0x80                  // in the version byte: the sliced form (rows.go)
	headerSize  = 4 + 1 + 1 + 4 + 4 + 1 // magic, version, quality, W, H, L
	bandRows    = 16                    // luma rows a band
	stripCols   = 64                    // luma columns a strip
	maxTables   = 3 * (2 + 128 + 15)    // a scan's tables: each plane's H, R and their bytes

	// MaxScans bounds the scan count: each refinement scan adds one bit of
	// plane precision, and the quality-derived shifts leave at most ~5
	// meaningful bits, so more than 4 scans would refine noise.
	MaxScans = 4
)

// Codec errors. ErrTruncated is the typed "prefix ends mid-scan" signal: a
// well-formed prefix ends exactly on a scan boundary (SlicePrefix guarantees
// this), so anything else is transport damage or a corrupt index.
var (
	ErrCorrupt     = errors.New("imaging: corrupt SJPG stream")
	errBadQuality  = errors.New("imaging: quality must be in [1, 100]")
	ErrUnsupported = errors.New("imaging: unsupported format version")
	ErrTruncated   = errors.New("imaging: SJPG prefix truncated mid-scan")
	errBadScans    = fmt.Errorf("imaging: scan count must be in [1, %d]", MaxScans)
	// errSliced refuses a sliced form (rows.go) to every reader but a crop of
	// the units it holds.
	errSliced = errors.New("imaging: a sliced SJPG decodes only a crop of the units it holds")
)

// DefaultQuality is used by EncodeDefault and by the dataset generator.
const DefaultQuality = 80

// maxDim is the largest width or height any header (SJPG, packed artifact)
// may claim.
const maxDim = 1 << 16

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func shifts(quality int) (yShift, cShift uint) {
	switch {
	case quality >= 90:
		return 0, 1
	case quality >= 70:
		return 1, 2
	case quality >= 50:
		return 2, 3
	default:
		return 3, 4
	}
}

// planeBytes returns the bytes plane i of scan j of a w×h image takes and its
// bands take, and its stride in values: its values, or from scan 1 on one bit
// of each.
func planeBytes(w, h, i, j int) (size, band, stride int) {
	stride, rows := w, h
	if i > 0 {
		stride, rows = (w+1)/2, (h+1)/2
	}
	size, band = stride*rows, bandRows>>min(i, 1)*stride
	if j > 0 {
		size, band = (size+7)/8, band/8
	}
	return size, band, stride
}

// grid is the unit geometry of a w×h image: its bands and its strips.
type grid struct{ w, h, bands, strips int }

func gridOf(w, h int) grid {
	return grid{w, h, (h + bandRows - 1) / bandRows, (w + stripCols - 1) / stripCols}
}

// units returns how many units scan j is cut into.
func (g grid) units(j int) int {
	if j == 0 {
		return g.bands * g.strips
	}
	return g.bands
}

// unit returns the band and strip of unit u of scan j; a refinement scan's
// are strip 0.
func (g grid) unit(j, u int) (b, s int) {
	if j == 0 {
		return u / g.strips, u % g.strips
	}
	return u, 0
}

// part returns where plane i's values in unit u of scan 0 lie: rows by cols
// from row top and column left.
func (g grid) part(i, u int) (top, left, rows, cols int) {
	_, _, stride := planeBytes(g.w, g.h, i, 0)
	b, s := g.unit(0, u)
	br, sc := bandRows>>min(i, 1), stripCols>>min(i, 1)
	top, left = b*br, s*sc
	return top, left, min(br, (g.h+min(i, 1))>>min(i, 1)-top), min(sc, stride-left)
}

// partBytes returns the bytes of plane i in unit u of scan j.
func (g grid) partBytes(i, j, u int) int {
	if j == 0 {
		_, _, rows, cols := g.part(i, u)
		return rows * cols
	}
	size, band, _ := planeBytes(g.w, g.h, i, j)
	return min(band, size-u*band)
}

// span is the units a crop reads: bands [b0, b1) and, of scan 0's, strips
// [s0, s1).
type span struct{ b0, b1, s0, s1 int }

// spanOf returns the span of rect's rows and columns.
func spanOf(rect Rect) span {
	return span{rect.Y / bandRows, (rect.Y+rect.H-1)/bandRows + 1, rect.X / stripCols, (rect.X+rect.W-1)/stripCols + 1}
}

func (g grid) all() span { return span{0, g.bands, 0, g.strips} }

// within reports whether sp lies inside o.
func (sp span) within(o span) bool {
	return o.b0 <= sp.b0 && sp.b1 <= o.b1 && o.s0 <= sp.s0 && sp.s1 <= o.s1
}

// holds reports whether sp holds unit u of scan j.
func (sp span) holds(g grid, j, u int) bool {
	b, s := g.unit(j, u)
	return sp.b0 <= b && b < sp.b1 && (j > 0 || sp.s0 <= s && s < sp.s1)
}

// last returns the last unit of scan j sp holds.
func (sp span) last(g grid, j int) int {
	if j == 0 {
		return (sp.b1-1)*g.strips + sp.s1 - 1
	}
	return sp.b1 - 1
}

// Encode compresses im at the given quality (1..100) into a container of one
// scan.
func Encode(im *Image, quality int) ([]byte, error) { return EncodeProgressive(im, quality, 1) }

// EncodeDefault is Encode at DefaultQuality.
func EncodeDefault(im *Image) ([]byte, error) { return Encode(im, DefaultQuality) }

// EncodeProgressive compresses im at the given quality into a container of
// scans scans (1..MaxScans). The returned slice is freshly allocated at its
// exact length and owned by the caller; the scratch is pooled, the writer's
// on the stack.
func EncodeProgressive(im *Image, quality, scans int) ([]byte, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("%w: %d", errBadQuality, quality)
	}
	if scans < 1 || scans > MaxScans {
		return nil, fmt.Errorf("%w: %d", errBadScans, scans)
	}
	yShift, cShift := shifts(quality)
	g := gridOf(im.W, im.H)
	n, cn := im.W*im.H, ((im.W+1)/2)*((im.H+1)/2)
	total := n + 2*cn
	// The values, one scan's planes in unit order, the coded scans — a plane
	// takes at most its bytes and a marker — and then the index: a CRC, the
	// tables' size and a unit's length take ≤ 4, 2, 4 B.
	coded := 0
	for j := range scans {
		for i := range 3 {
			size, _, _ := planeBytes(im.W, im.H, i, j)
			coded += 1 + size
		}
	}
	buf := bufpool.GetBytes(2*total + coded + scans*(6+4*g.units(0)))
	defer bufpool.PutBytes(buf)
	values, scratch, body, index := buf[:total], buf[total:2*total], buf[2*total:2*total], buf[2*total+coded:2*total+coded]
	fillPlanes(im, yShift, cShift, values[:n], values[n:n+cn], values[n+cn:])

	var code [3]planeCode
	mids := middles(quality, scans)
	for j := range scans {
		at, start, off, bound := len(index), len(body), 0, 0 // bound: the scan's bytes at most
		index = append(index, 0, 0, 0, 0)                    // the scan's CRC, once it is coded
		var planes [3][]byte
		for i, v := range [3][]byte{values[:n], values[n : n+cn], values[n+cn:]} {
			size, _, stride := planeBytes(im.W, im.H, i, j)
			p := scratch[off : off+size]
			off, bound = off+size, bound+1+size
			if j == 0 {
				// The byte loop of a variable shift costs ≈ 50× the copy, a
				// tenth of a one-scan encode: one scan takes the copy alone.
				for u, o := 0, 0; u < g.units(0); u++ {
					top, left, rows, cols := g.part(i, u)
					part := p[o : o+rows*cols]
					for r := range rows {
						o += copy(part[r*cols:], v[(top+r)*stride+left:][:cols])
					}
					if scans > 1 {
						for k := range part {
							part[k] >>= scans - 1
						}
					}
					deltaEncode(part, cols, mids[i])
				}
			} else {
				clear(p)
				bit := uint(scans - 1 - j)
				for k, x := range v {
					p[k>>3] |= (x >> bit & 1) << (k & 7)
				}
			}
			planes[i] = p
			var byZ [planeSyms]int
			var lits [256]int
			extra := 0
			for u, lo := 0, 0; u < g.units(j); u++ {
				hi := lo + g.partBytes(i, j, u)
				extra += tally(p[lo:hi], &byZ, &lits)
				lo = hi
			}
			code[i].plan(p, &byZ, &lits, extra)
		}
		tables := 0
		for i := range code {
			tables += code[i].putTables(body[len(body)+tables : cap(body)])
		}
		index = binary.AppendUvarint(index, uint64(tables))
		w := codeWriter{out: body[len(body)+tables : len(body)+bound]}
		var lo [3]int
		for u := range g.units(j) {
			from := w.bits()
			for i := range code {
				hi := lo[i] + g.partBytes(i, j, u)
				w.put(&code[i], planes[i][lo[i]:hi])
				lo[i] = hi
			}
			index = binary.AppendUvarint(index, uint64(w.bits()-from))
		}
		body = body[:len(body)+tables+w.flush()]
		binary.BigEndian.PutUint32(index[at:], crc32.Checksum(body[start:], crcTable))
	}
	out := make([]byte, headerSize+uvarintLen(len(index))+len(index)+len(body))
	copy(out, sjpgMagic)
	out[4], out[5] = sjpgVersion, uint8(quality)
	binary.BigEndian.PutUint32(out[6:10], uint32(im.W))
	binary.BigEndian.PutUint32(out[10:14], uint32(im.H))
	out[14] = uint8(scans)
	o := headerSize + binary.PutUvarint(out[headerSize:], uint64(len(index)))
	copy(out[o+copy(out[o:], index):], body)
	return out, nil
}

// fillPlanes computes the SJPG-quantized Y/Cb/Cr planes for im: luma per
// pixel shifted by yShift, chroma 2x2-box-averaged then shifted by cShift.
// The plane slices must be sized W*H, cw*ch, cw*ch respectively.
func fillPlanes(im *Image, yShift, cShift uint, yPlane, cbPlane, crPlane []uint8) {
	w, h := im.W, im.H
	cw := (w + 1) / 2
	for y := 0; y < h; y += 2 {
		// One chroma row covers two pixel rows. Under the last row of an
		// odd-height image the second row aliases the first: every sum
		// doubles, and so does the divisor.
		y1 := y + 1
		if y1 == h {
			y1 = y
		}
		top, bot := im.Pix[y*w*Channels:(y+1)*w*Channels], im.Pix[y1*w*Channels:(y1+1)*w*Channels]
		yTop, yBot := yPlane[y*w:(y+1)*w], yPlane[y1*w:(y1+1)*w]
		cbRow, crRow := cbPlane[y/2*cw:(y/2+1)*cw], crPlane[y/2*cw:(y/2+1)*cw]
		for cx := range cbRow {
			// The box is two rows by two columns — one column at the end of
			// an odd width — so the mean is a shift by log2 of that.
			x, mean := 2*cx, uint(1)
			yy, cb, cr := color.RGBToYCbCr(top[3*x], top[3*x+1], top[3*x+2])
			yTop[x] = yy >> yShift
			cbSum, crSum := uint32(cb), uint32(cr)
			yy, cb, cr = color.RGBToYCbCr(bot[3*x], bot[3*x+1], bot[3*x+2])
			yBot[x] = yy >> yShift
			cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
			if x++; x < w {
				mean = 2
				yy, cb, cr = color.RGBToYCbCr(top[3*x], top[3*x+1], top[3*x+2])
				yTop[x] = yy >> yShift
				cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
				yy, cb, cr = color.RGBToYCbCr(bot[3*x], bot[3*x+1], bot[3*x+2])
				yBot[x] = yy >> yShift
				cbSum, crSum = cbSum+uint32(cb), crSum+uint32(cr)
			}
			cbRow[cx] = uint8(cbSum>>mean) >> cShift
			crRow[cx] = uint8(crSum>>mean) >> cShift
		}
	}
}

// Decode reconstructs an image from a container or a prefix of whole scans,
// at the fidelity of the scans it holds, refusing it unless each scan matches
// its CRC and each band's codes start where the index says. The returned image
// is pool-backed: the caller owns it and should call Release when done to keep
// the decode path allocation-free at steady state (skipping Release is safe,
// merely slower).
func Decode(data []byte) (*Image, error) {
	c, err := whole(data)
	if err != nil {
		return nil, err
	}
	p, err := c.decode(data, c.present, gridOf(c.w, c.h).all())
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.image()
}

// DecodeCropResize is CropResize(Decode(data), rect, w, h) without the full
// image in between: it checks the header, the index and the rect, then
// decodes only the units rect falls in — the strips of its columns in the
// bands of its rows, and of a refinement scan those bands — with Decode's
// checks, and dequantizes only the pixels the resample reads
// (ycc.cropResize). Where Decode accepts, the pixels and errors are
// CropResize(Decode)'s. A fault in a unit it does not read it need not see,
// nor one only a scan's CRC shows unless it reads every unit — over the whole
// image it refuses as Decode does — which is why a store decodes each object
// in full as it loads (dataset.DirSet.Materialize). The result is
// pool-backed. It also reads the sliced form (rows.go), refusing with
// errSliced a rect of other units.
func DecodeCropResize(data []byte, rect Rect, w, h int) (*Image, error) {
	if len(data) > headerSize && data[4] == sjpgVersion|rowsFlag {
		stored, err := unslice(data, rect)
		if err != nil {
			return nil, err
		}
		defer bufpool.PutBytes(stored)
		data = stored
	}
	c, err := whole(data)
	if err != nil {
		return nil, err
	}
	if err := checkCropResize(rect, c.w, c.h, w, h); err != nil {
		return nil, err
	}
	p, err := c.decode(data, c.present, spanOf(rect))
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.cropResize(rect, w, h)
}

// ycc is an accepted stream between its two decode steps: the still quantized
// Y/Cb/Cr planes of a w×h image (chroma 2x2-subsampled) and the shifts that
// dequantize them — for a prefix the undelivered refinement depth on top of
// the quality-derived shift. The planes are cut from buf, a bufpool buffer the
// ycc owns until release, and after them each plane's refinement bit planes.
// While residual is set the planes are what the stream decoded to,
// row-prediction residuals, and the one step that reads them — image or
// cropResize — first undoes the prediction where it will read, and there
// folds in the refinement bits; the rest stays residuals, so a ycc serves one
// such call. The ycc of a Planes (decoded.go) is the exception: its planes
// are values throughout, cut from plain memory that is never released, and
// it serves any number of calls, each on a copy.
type ycc struct {
	w, h           int
	yShift, cShift uint
	y, cb, cr      []uint8
	ref            [3]refinement
	buf            []uint8
	residual       bool
}

// newYCC draws the buffer of a w×h image's planes at quality from k of scans
// scans: the values, then each plane's k−1 bit planes.
func newYCC(w, h, quality, scans, k int) ycc {
	yShift, cShift := shifts(quality)
	n, cn := w*h, ((w+1)/2)*((h+1)/2)
	bits := [3]int{(n + 7) / 8, (cn + 7) / 8, (cn + 7) / 8}
	buf := bufpool.GetBytes(n + 2*cn + (k-1)*(bits[0]+2*bits[1]))
	p := ycc{w: w, h: h, yShift: yShift + uint(scans-k), cShift: cShift + uint(scans-k),
		y: buf[:n], cb: buf[n : n+cn], cr: buf[n+cn : n+2*cn], buf: buf, residual: true}
	for i, o := 0, n+2*cn; i < 3; i, o = i+1, o+(k-1)*bits[i] {
		p.ref[i] = refinement{buf[o : o+(k-1)*bits[i]], k - 1}
	}
	return p
}

// plane returns where plane i of scan j decodes to.
func (p *ycc) plane(i, j int) []byte {
	if j == 0 {
		return [3][]byte{p.y, p.cb, p.cr}[i]
	}
	r := p.ref[i]
	span := len(r.packed) / r.planes
	return r.packed[(j-1)*span : j*span]
}

func (p *ycc) release() { bufpool.PutBytes(p.buf) }

// undoPrediction turns residuals back into plane values on the luma rows that
// rows lists, from the strip of luma column first through column last, and
// on the chroma under them.
func (p *ycc) undoPrediction(rows []int32, first, last int) {
	if !p.residual {
		return
	}
	p.residual = false
	cw, first := (p.w+1)/2, first-first%stripCols
	undoPrediction(p.y, p.w, rows, 0, first, last, bandRows, stripCols, p.ref[0])
	undoPrediction(p.cb, cw, rows, 1, first>>1, last>>1, bandRows/2, stripCols/2, p.ref[1])
	undoPrediction(p.cr, cw, rows, 1, first>>1, last>>1, bandRows/2, stripCols/2, p.ref[2])
}

// undoEveryPrediction is undoPrediction over the whole image.
func (p *ycc) undoEveryPrediction() {
	if !p.residual {
		return
	}
	s := samplerPool.Get().(*sampler)
	s.rows = s.rows[:0]
	for r := 0; r < p.h; r++ {
		s.rows = append(s.rows, int32(r))
	}
	p.undoPrediction(s.rows, 0, p.w-1)
	samplerPool.Put(s)
}

// container is an accepted header and index: where each scan starts (and,
// at scans, where the last ends), its CRC, its tables' bytes and its units'
// lengths in bits (uvarints), and how many whole scans data holds.
type container struct {
	w, h, quality, scans int
	present              int // whole scans; −1 when data ends inside one
	start                [MaxScans + 1]int
	crc                  [MaxScans]uint32
	tables               [MaxScans]int
	index                [MaxScans][]byte
	rows                 int  // a sliced form's: where its held bytes start (else 0)
	cut                  span // and the units it holds
}

// parse checks the header and the index before any buffer is sized: a scan
// takes at most its planes' bytes and a marker each, each unit's codes are
// long enough to yield its values, and data ends at or before the last scan's
// end. Of a scan whose tables data holds, it also checks that they take the
// bytes the index says. Of a sliced form it checks the index alone and then
// what follows it (readRows), and refuses it as errSliced.
func parse(data []byte) (c container, err error) {
	if c.w, c.h, c.quality, c.scans, err = parseHeader(data); err != nil {
		return c, err
	}
	end := len(data) // where the scans data holds end: a sliced form holds none where the index says
	if data[4] != sjpgVersion {
		end = 0
	}
	index := data[headerSize:]
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(index)
		index = index[max(k, 0):]
		return v, k > 0
	}
	bad := func(format string, a ...any) (container, error) {
		return c, fmt.Errorf("%w: index: "+format, append([]any{ErrCorrupt}, a...)...)
	}
	size, ok := next()
	if !ok || size > uint64(len(index)) {
		return bad("truncated uvarint, or %d bytes of index in %d", size, len(index))
	}
	g := gridOf(c.w, c.h)
	index, o := index[:size], len(data)-len(index)+int(size)
	for j := range c.scans {
		if len(index) < 4 {
			return bad("scan %d: no CRC", j)
		}
		c.crc[j], index, c.start[j] = binary.BigEndian.Uint32(index), index[4:], o
		bound := 0
		for i := range 3 {
			n, _, _ := planeBytes(c.w, c.h, i, j)
			bound += 1 + n
		}
		tables, ok := next()
		if !ok || tables < 3 || tables > maxTables {
			return bad("scan %d: truncated uvarint, or %d bytes of tables", j, tables)
		}
		from, bits := index, uint64(0)
		for u := range g.units(j) {
			v, ok := next()
			values := 0
			for i := range 3 {
				values += g.partBytes(i, j, u)
			}
			if bits += v; !ok || v > 8*uint64(bound) || v*maxRun < uint64(values) {
				return bad("scan %d %s: a truncated length, or %d bits for %d values", j, g.name(j, u), v, values)
			}
		}
		if n := tables + (bits+7)/8; n > uint64(bound) {
			return bad("scan %d: %d bytes, over its planes' %d", j, n, bound)
		}
		if t := o + int(tables); t <= end {
			at, planes := o, 0 // a plane's tables: H, H bytes, R, R bytes; or 0, stored
			for ; planes < 3 && at < t; planes++ {
				if data[at] == 0 {
					at++
					continue
				}
				if at += 1 + int(data[at]); at >= t {
					break
				}
				at += 1 + int(data[at])
			}
			if planes != 3 || at != t {
				return bad("scan %d: %d bytes hold no three planes' tables", j, tables)
			}
		}
		c.tables[j], c.index[j] = int(tables), from[:len(from)-len(index)]
		o += int(tables + (bits+7)/8)
	}
	c.start[c.scans] = o
	if len(index) != 0 {
		return bad("%d trailing index bytes", len(index))
	}
	if end == 0 { // read through, for unslice
		return c, cmp.Or(c.readRows(data), errSliced)
	}
	if len(data) > o {
		return bad("%d bytes after the scans", len(data)-o)
	}
	c.present = -1
	for k := 0; k <= c.scans; k++ {
		if len(data) == c.start[k] {
			c.present = k
		}
	}
	return c, nil
}

// name names unit u of scan j in an error.
func (g grid) name(j, u int) string {
	b, s := g.unit(j, u)
	if j > 0 {
		return fmt.Sprintf("band %d", b)
	}
	return fmt.Sprintf("band %d strip %d", b, s)
}

// whole is parse, refusing data unless it holds one whole scan or more and
// ends on a scan boundary.
func whole(data []byte) (container, error) {
	c, err := parse(data)
	if err == nil && c.present < 1 {
		err = fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	return c, err
}

// decode decodes the units of the first k scans that sp holds: scan 0's into
// the planes of a pooled ycc, each refinement scan's into a bit plane of each
// after them. Where that is every unit, it first checks each scan against its
// CRC, and then the pad bits of each bit plane's last byte; a crop of some
// units reads no more of a scan than them.
func (c *container) decode(data []byte, k int, sp span) (ycc, error) {
	g := gridOf(c.w, c.h)
	every := sp == g.all()
	for j := 0; every && j < k; j++ {
		if crc32.Checksum(data[c.start[j]:c.start[j+1]], crcTable) != c.crc[j] {
			return ycc{}, fmt.Errorf("%w: scan %d CRC mismatch", ErrCorrupt, j)
		}
	}
	p, mids := newYCC(c.w, c.h, c.quality, c.scans, k), middles(c.quality, c.scans)
	sc := packPool.Get().(*packScratch)
	defer packPool.Put(sc)
	for j := range k {
		err := inflate(sc, data[c.start[j]:c.start[j+1]], c.tables[j], c.index[j], g, j, sp, &p, mids)
		for i := 0; err == nil && j > 0 && every && i < 3; i++ {
			if n, _, _ := planeBytes(c.w, c.h, i, 0); p.plane(i, j)[(n-1)>>3]>>((n-1)&7+1) != 0 {
				err = fmt.Errorf("plane %d: bits set past the last value", i)
			}
		}
		if err != nil {
			p.release()
			return ycc{}, fmt.Errorf("%w: scan %d %v", ErrCorrupt, j, err)
		}
	}
	return p, nil
}

// image dequantizes the planes back into a pooled RGB image. The arithmetic
// is color.YCbCrToRGB's, with its per-chroma-sample terms hoisted out of the
// (up to four) pixels that share them.
func (p *ycc) image() (*Image, error) {
	w, h := p.w, p.h
	im, err := newPooled(w, h)
	if err != nil {
		return nil, err
	}
	p.undoEveryPrediction()
	var yy1, c1 [256]int32
	p.dequantTables(&yy1, &c1)
	cw := (w + 1) / 2
	for y := 0; y < h; y += 2 {
		// Under the last row of an odd-height image the second row aliases
		// the first and is simply written twice.
		y1 := y + 1
		if y1 == h {
			y1 = y
		}
		top, bot := im.Pix[y*w*Channels:(y+1)*w*Channels], im.Pix[y1*w*Channels:(y1+1)*w*Channels]
		yTop, yBot := p.y[y*w:(y+1)*w], p.y[y1*w:(y1+1)*w]
		cbRow, crRow := p.cb[y/2*cw:(y/2+1)*cw], p.cr[y/2*cw:(y/2+1)*cw]
		for cx, cb := range cbRow {
			cb1, cr1 := c1[cb], c1[crRow[cx]]
			rAdd, gAdd, bAdd := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
			x := 2 * cx
			if x+1 == w { // last column of an odd width
				l0, l1 := yy1[yTop[x]], yy1[yBot[x]]
				t, b := top[3*x:3*x+3:3*x+3], bot[3*x:3*x+3:3*x+3]
				t[0], t[1], t[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
				b[0], b[1], b[2] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
				break
			}
			t, b := top[3*x:3*x+6:3*x+6], bot[3*x:3*x+6:3*x+6]
			l0, l1 := yy1[yTop[x]], yy1[yTop[x+1]]
			t[0], t[1], t[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
			t[3], t[4], t[5] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
			l0, l1 = yy1[yBot[x]], yy1[yBot[x+1]]
			b[0], b[1], b[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
			b[3], b[4], b[5] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
		}
	}
	return im, nil
}

// dequantTables fills the two lookups both dequantizers share: dequantized
// luma pre-multiplied into YCbCrToRGB's yy1, and dequantized chroma
// re-centred on zero.
func (p *ycc) dequantTables(yy1, c1 *[256]int32) {
	for v := range yy1 {
		yy1[v] = int32(dequant(uint8(v), p.yShift)) * 0x10101
		c1[v] = int32(dequant(uint8(v), p.cShift)) - 128
	}
}

// cropResize dequantizes rect and resamples it to w×h: the pixels of
// CropResize(p.image(), rect, w, h) without the image. The resample reads at
// most two source rows per output row and two columns per output column, so
// only those rows × columns are converted — every pixel of the rect when it
// is no larger than the output, at most (2w)×(2h) otherwise — into a pooled
// compact buffer that blend then reads through taps renumbered to it.
// Conversion and blend are each the arithmetic of the unfused pair, so every
// byte is the same. The output image is requested only once rect is accepted.
func (p *ycc) cropResize(rect Rect, w, h int) (*Image, error) {
	if err := checkCropResize(rect, p.w, p.h, w, h); err != nil {
		return nil, err
	}
	dst, err := newPooled(w, h)
	if err != nil {
		return nil, err
	}
	s := samplerPool.Get().(*sampler)
	defer samplerPool.Put(s)
	s.x.fill(rect.W, w)
	s.y.fill(rect.H, h)
	s.cols = s.x.compact(rect.X, s.cols)
	s.rows = s.y.compact(rect.Y, s.rows)
	p.undoPrediction(s.rows, int(s.cols[0]), int(s.cols[len(s.cols)-1]))
	if w == rect.W && h == rect.H {
		// Pure crop: the taps name every pixel of rect with weight one.
		p.convert(s.rows, s.cols, dst.Pix)
		return dst, nil
	}
	compact := bufpool.GetBytes(len(s.rows) * len(s.cols) * Channels)
	p.convert(s.rows, s.cols, compact)
	blend(compact, len(s.cols), &s.x, &s.y, dst)
	bufpool.PutBytes(compact)
	return dst, nil
}

// convert dequantizes the pixels at rows × cols into out, row-major, with
// image's tables and arithmetic. Two listed rows under one chroma row are
// converted together, so that each tapped chroma sample's terms are computed
// once for both.
func (p *ycc) convert(rows, cols []int32, out []uint8) {
	var yy1, c1 [256]int32
	p.dequantTables(&yy1, &c1)
	cw, n := (p.w+1)/2, len(cols)*Channels
	for k := 0; k < len(rows); k++ {
		r := rows[k]
		y0 := p.y[int(r)*p.w : (int(r)+1)*p.w]
		cbRow, crRow := p.cb[int(r>>1)*cw:(int(r>>1)+1)*cw], p.cr[int(r>>1)*cw:(int(r>>1)+1)*cw]
		px0 := out[:n]
		if r&1 == 0 && k+1 < len(rows) && rows[k+1] == r+1 {
			k++
			y1, px1 := p.y[int(r+1)*p.w:(int(r)+2)*p.w], out[n:2*n]
			out = out[2*n:]
			for _, c := range cols {
				cb1, cr1 := c1[cbRow[c>>1]], c1[crRow[c>>1]]
				rAdd, gAdd, bAdd := 91881*cr1, -22554*cb1-46802*cr1, 116130*cb1
				l0, l1 := yy1[y0[c]], yy1[y1[c]]
				px0[0], px0[1], px0[2] = clamp8(l0+rAdd), clamp8(l0+gAdd), clamp8(l0+bAdd)
				px1[0], px1[1], px1[2] = clamp8(l1+rAdd), clamp8(l1+gAdd), clamp8(l1+bAdd)
				px0, px1 = px0[Channels:], px1[Channels:]
			}
			continue
		}
		out = out[n:]
		for _, c := range cols {
			cb1, cr1 := c1[cbRow[c>>1]], c1[crRow[c>>1]]
			l := yy1[y0[c]]
			px0[0], px0[1], px0[2] = clamp8(l+91881*cr1), clamp8(l-22554*cb1-46802*cr1), clamp8(l+116130*cb1)
			px0 = px0[Channels:]
		}
	}
}

// clamp8 maps a 16.16 fixed-point channel to [0, 255].
func clamp8(v int32) uint8 {
	if uint32(v)&0xff000000 == 0 {
		return uint8(v >> 16)
	}
	return uint8(^(v >> 31))
}

func dequant(v uint8, shift uint) uint8 {
	if shift == 0 {
		return v
	}
	out := uint16(v)<<shift + 1<<(shift-1)
	if out > 255 {
		out = 255
	}
	return uint8(out)
}

// DecodeDims returns the pixel dimensions recorded in a container's header,
// or a sliced form's, without decompressing the payload.
func DecodeDims(data []byte) (w, h int, err error) {
	w, h, _, _, err = parseHeader(data)
	return w, h, err
}

// parseHeader checks the header. A stream of an earlier version — SJPG, or
// the SJPR container earlier builds kept progressive scans in — is refused by
// name: ErrUnsupported, not ErrCorrupt.
func parseHeader(data []byte) (w, h, quality, scans int, err error) {
	if len(data) < headerSize || string(data[:4]) != sjpgMagic && string(data[:4]) != sjprMagic {
		return 0, 0, 0, 0, ErrCorrupt
	}
	if v := data[4] &^ rowsFlag; v != sjpgVersion {
		return 0, 0, 0, 0, fmt.Errorf("%w: %s version %d, this build reads %d", ErrUnsupported, data[:4], v, sjpgVersion)
	}
	quality, scans = int(data[5]), int(data[14])
	w = int(binary.BigEndian.Uint32(data[6:10]))
	h = int(binary.BigEndian.Uint32(data[10:14]))
	switch {
	case string(data[:4]) != sjpgMagic:
		return 0, 0, 0, 0, fmt.Errorf("%w: %s under version %d", ErrCorrupt, data[:4], sjpgVersion)
	case quality < 1 || quality > 100:
		return 0, 0, 0, 0, fmt.Errorf("%w: quality %d", ErrCorrupt, quality)
	case w <= 0 || h <= 0 || w > maxDim || h > maxDim:
		return 0, 0, 0, 0, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, w, h)
	case scans < 1 || scans > MaxScans:
		return 0, 0, 0, 0, fmt.Errorf("%w: scan count %d", ErrCorrupt, scans)
	}
	return w, h, quality, scans, nil
}

// middles returns the middle of the values scan 0 of a container of scans
// scans at quality holds, a plane each: what the first value of each part
// predicts from.
func middles(quality, scans int) [3]uint8 {
	yShift, cShift := shifts(quality)
	s := uint(scans - 1)
	return [3]uint8{128 >> (yShift + s), 128 >> (cShift + s), 128 >> (cShift + s)}
}

// deltaEncode replaces each value of part, rows of cols values, with its
// difference from the value before it in its row, tightening the residual
// distribution for the coder. The first value of a row predicts from the
// first of the row above, and the first of the part from mid, so that a part
// needs nothing from outside itself.
func deltaEncode(part []uint8, cols int, mid uint8) {
	// Bottom-up, so the row above is still unencoded when it predicts.
	for row := len(part) - cols; row >= 0; row -= cols {
		prev := mid
		if row > 0 {
			prev = part[row-cols]
		}
		r := part[row : row+cols]
		for i, v := range r {
			r[i] = v - prev
			prev = v
		}
	}
}

// undoPrediction reverses deltaEncode, over each part of plane, in place on
// the rows of plane that rows lists, from column first, the first of a strip
// of strip columns, through column last; every other value stays a residual.
// A strip's first column is a chain down each band of band rows (a power of
// two) from the band's first row to the listed row; the other columns predict
// from their left neighbour, a running sum along each listed row within each
// strip. rows ascends and lists rows of a plane 1<<shift times as tall — luma
// rows, for a chroma plane — so it may name a row of this one more than once.
// A refinement bit extends a value, not its residual: ref's are folded into
// the values restored.
func undoPrediction(plane []uint8, stride int, rows []int32, shift uint, first, last, band, strip int, ref refinement) {
	chained := -1 // the last row whose strips' first columns are values, before any refinement bit
	for _, r := range rows {
		for chained = max(chained, int(r>>shift)&^(band-1)); chained < int(r>>shift); chained++ {
			at := (chained + 1) * stride
			for c := first; c <= last; c += strip {
				plane[at+c] += plane[at-stride+c]
			}
		}
	}
	done := -1
	for _, r := range rows {
		row := int(r >> shift)
		if row == done {
			continue
		}
		done = row
		at := row * stride
		for c := first; c <= last; c += strip {
			runningSum(plane[at+c : at+min(c+strip, last+1)])
		}
		if ref.planes > 0 {
			ref.fold(plane[at+first:at+last+1], at+first)
		}
	}
}

// runningSum replaces each value of row with the sum of the values up to it.
// It is kept out of line: inlined into undoPrediction's loop (Go 1.24) the
// accumulator is spilled to the stack and the loop runs at half the speed, and
// it takes a strip's row at a time: a loop over the strips around it spills
// it too.
//
//go:noinline
func runningSum(row []uint8) {
	var acc uint8
	for i, v := range row {
		acc += v
		row[i] = acc
	}
}
