package main

import (
	"math"
	"math/rand"
	"strconv"
)

// The benchmark's own seeded generators. Each emits XML text together with
// the records it was made from; the oracle (oracle.go) computes every
// reference answer from those records, never from xqgo.

// OrderLine is one generated Order/OrderLine record.
type OrderLine struct {
	N      int // the line's n attribute, unique within a feed
	Seller int
	ID     string // Item/ID, unique within a feed
	Qty    int
	Dock   int
}

// Orders is a generated Order document.
type Orders struct {
	XML   []byte
	Lines []OrderLine
	// CloseEnd[i] and NoteEnd[i] are the byte offsets just past line i's
	// </OrderLine> and </Note> tags.
	CloseEnd, NoteEnd []int
}

// orderLineBytes is the approximate serialized size of one OrderLine, used
// to size messages by bytes.
const orderLineBytes = 150

// genOrders emits an Order document with the given number of lines, sellers
// drawn from 1..sellers.
func genOrders(rng *rand.Rand, id int64, lines, sellers int) Orders {
	o := Orders{
		XML:      make([]byte, 0, lines*orderLineBytes+64),
		Lines:    make([]OrderLine, 0, lines),
		CloseEnd: make([]int, 0, lines),
		NoteEnd:  make([]int, 0, lines),
	}
	b := o.XML
	b = append(b, `<Order id="`...)
	b = strconv.AppendInt(b, id, 10)
	b = append(b, "\">\n  <date>2003-08-19</date>\n"...)
	for i := 1; i <= lines; i++ {
		l := OrderLine{
			N:      i,
			Seller: 1 + rng.Intn(sellers),
			Qty:    1 + rng.Intn(20),
			Dock:   rng.Intn(40),
		}
		l.ID = "SKU-" + strconv.Itoa(i) + "-" + strconv.Itoa(rng.Intn(10000))
		b = append(b, `  <OrderLine n="`...)
		b = strconv.AppendInt(b, int64(l.N), 10)
		b = append(b, `"><SellersID>`...)
		b = strconv.AppendInt(b, int64(l.Seller), 10)
		b = append(b, `</SellersID><Item><ID>`...)
		b = append(b, l.ID...)
		b = append(b, `</ID><Quantity>`...)
		b = strconv.AppendInt(b, int64(l.Qty), 10)
		b = append(b, `</Quantity></Item><Note>line `...)
		b = strconv.AppendInt(b, int64(l.N), 10)
		b = append(b, ` dock `...)
		b = strconv.AppendInt(b, int64(l.Dock), 10)
		b = append(b, `</Note>`...)
		o.NoteEnd = append(o.NoteEnd, len(b))
		b = append(b, `</OrderLine>`...)
		o.CloseEnd = append(o.CloseEnd, len(b))
		b = append(b, '\n')
		o.Lines = append(o.Lines, l)
	}
	b = append(b, "</Order>\n"...)
	o.XML = b
	return o
}

// Book is one generated bibliography record.
type Book struct {
	Year      int
	Title     string
	Authors   [][2]string // last, first
	Publisher string
	Cents     int // price in cents
}

// Bib is a generated bibliography document.
type Bib struct {
	XML   []byte
	Books []Book
}

var (
	titleWords = []string{
		"Data", "Web", "Advanced", "TCP/IP", "Streams", "Principles",
		"Modern", "Foundations", "Semistructured", "Query", "Processing",
		"XML", "Systems", "Internals", "Design",
	}
	firstNames = []string{"Serge", "Dan", "Mary", "Divesh", "Jennifer", "Michael", "Daniela", "Don", "Jerome", "Nick"}
	lastNames  = []string{"Abiteboul", "Suciu", "Fernandez", "Srivastava", "Widom", "Franklin", "Florescu", "Chamberlin", "Simeon", "Koudas"}
	publishers = []string{"Addison-Wesley", "Morgan Kaufmann", "Springer & Verlag", "O'Reilly", "Prentice Hall"}
)

// bookBytes is the approximate serialized size of one book.
const bookBytes = 190

func genBib(rng *rand.Rand, books int) Bib {
	bib := Bib{XML: make([]byte, 0, books*bookBytes+32), Books: make([]Book, 0, books)}
	b := append(bib.XML, "<bib>\n"...)
	for i := 0; i < books; i++ {
		bk := Book{
			Year: 1980 + rng.Intn(25),
			Title: titleWords[rng.Intn(len(titleWords))] + " " +
				titleWords[rng.Intn(len(titleWords))] + " " +
				titleWords[rng.Intn(len(titleWords))],
		}
		for a := 0; a <= rng.Intn(3); a++ {
			bk.Authors = append(bk.Authors, [2]string{lastNames[rng.Intn(len(lastNames))], firstNames[rng.Intn(len(firstNames))]})
		}
		bk.Publisher = publishers[rng.Intn(len(publishers))]
		bk.Cents = 2000 + rng.Intn(8000)
		b = append(b, `  <book year="`...)
		b = strconv.AppendInt(b, int64(bk.Year), 10)
		b = append(b, `"><title>`...)
		b = append(b, bk.Title...)
		b = append(b, `</title>`...)
		for _, a := range bk.Authors {
			b = append(b, `<author><last>`...)
			b = append(b, a[0]...)
			b = append(b, `</last><first>`...)
			b = append(b, a[1]...)
			b = append(b, `</first></author>`...)
		}
		b = append(b, `<publisher>`...)
		b = appendText(b, bk.Publisher)
		b = append(b, `</publisher><price>`...)
		b = strconv.AppendInt(b, int64(bk.Cents/100), 10)
		b = append(b, '.', byte('0'+bk.Cents%100/10), byte('0'+bk.Cents%10))
		b = append(b, "</price></book>\n"...)
		bib.Books = append(bib.Books, bk)
	}
	bib.XML = append(b, "</bib>\n"...)
	return bib
}

// DeepNode is one element of a generated recursive tree, in document order.
type DeepNode struct {
	Name   byte  // 'a'..'d'
	Parent int32 // index of the parent element; -1 for children of <root>
}

// Deep is a generated recursive document over the names a, b, c, d.
type Deep struct {
	XML   []byte
	Nodes []DeepNode
}

// genDeep emits a tree of about n elements where a, b, c and d nest freely
// (depth at most 12, mean fanout 4): the ancestor/descendant shape the
// structural joins care about. The elements come in independent subtrees of
// at most deepSubtree elements each, so that query costs average over many
// of them: in one single tree the few labels nearest the root decide the
// cost of //a[b]//d, and it varied nearly twofold from seed to seed.
func genDeep(rng *rand.Rand, n int) Deep {
	const maxDepth, fanout, deepSubtree = 12, 4, 1000
	d := Deep{XML: make([]byte, 0, n*12), Nodes: make([]DeepNode, 0, n)}
	b := append(d.XML, "<root>"...)
	var budget int
	var gen func(depth int, parent int32)
	gen = func(depth int, parent int32) {
		if budget <= 0 || depth >= maxDepth {
			return
		}
		kids := 1 + rng.Intn(fanout*2-1)
		for i := 0; i < kids && budget > 0; i++ {
			budget--
			name := byte('a' + rng.Intn(4))
			id := int32(len(d.Nodes))
			d.Nodes = append(d.Nodes, DeepNode{Name: name, Parent: parent})
			b = append(b, '<', name, '>')
			if rng.Intn(4) == 0 {
				b = strconv.AppendInt(b, int64(rng.Intn(1000)), 10)
			} else {
				gen(depth+1, id)
			}
			b = append(b, '<', '/', name, '>')
		}
	}
	for len(d.Nodes) < n {
		budget = min(deepSubtree, n-len(d.Nodes))
		gen(1, -1)
	}
	d.XML = append(b, "</root>\n"...)
	return d
}

// Channel is one delivery-channel/document-exchange/transport triple of a
// trading partner.
type Channel struct {
	Name, Exchange, Transport string
	Protocol                  string // ebXML or RosettaNet
	Version                   string
	NonrepOrigin              string
	Semantics                 string // ebXML delivery semantics
	TTL                       int    // ebXML ttl in ms; 0 = absent
	TransportProto            string
	Endpoint                  string
}

// Partner is one generated trading partner.
type Partner struct {
	Name, Type, Email, BusinessID, Address string
	ClientCert, ServerCert                 bool
	Channels                               []Channel
}

// TP is a generated trading-partner configuration (the paper's customer
// query input).
type TP struct {
	XML      []byte
	Partners []Partner
}

func genTP(rng *rand.Rand, partners int) TP {
	tp := TP{XML: make([]byte, 0, partners*1500), Partners: make([]Partner, 0, partners)}
	b := append(tp.XML, "<wlc>\n"...)
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	for i := 0; i < partners; i++ {
		name := "partner-" + pad4(i)
		p := Partner{
			Name:       name,
			Type:       pick("LOCAL", "REMOTE"),
			Email:      name + "@example.com",
			BusinessID: "DUNS-" + strconv.Itoa(100000000+rng.Intn(900000000)),
			Address:    strconv.Itoa(100+rng.Intn(900)) + " Integration Way, Suite " + strconv.Itoa(rng.Intn(50)),
			ClientCert: rng.Intn(3) > 0,
			ServerCert: rng.Intn(3) > 0,
		}
		for c := 0; c < 1+rng.Intn(2); c++ {
			ch := Channel{
				Name:           name + "-channel-" + strconv.Itoa(c),
				Exchange:       name + "-exchange-" + strconv.Itoa(c),
				Transport:      name + "-transport-" + strconv.Itoa(c),
				Protocol:       pick("ebXML", "RosettaNet"),
				Version:        pick("1.0", "2.0"),
				NonrepOrigin:   pick("true", "false"),
				TransportProto: pick("http", "https"),
				Endpoint:       "https://" + name + ".example.com/exchange/" + strconv.Itoa(c),
			}
			if ch.Protocol == "ebXML" {
				ch.Semantics = pick("OnceAndOnlyOnce", "BestEffort")
				if rng.Intn(2) == 0 {
					ch.TTL = (1 + rng.Intn(60)) * 1000
				}
			}
			p.Channels = append(p.Channels, ch)
		}
		b = append(b, `  <trading-partner name="`...)
		b = append(b, p.Name...)
		b = append(b, `" description="generated trading partner" type="`...)
		b = append(b, p.Type...)
		b = append(b, `" email="`...)
		b = append(b, p.Email...)
		b = append(b, `" phone="+1-555-`...)
		b = append(b, pad4(rng.Intn(10000))...)
		b = append(b, "\">\n    <party-identifier business-id=\""...)
		b = append(b, p.BusinessID...)
		b = append(b, "\"/>\n    <address>"...)
		b = append(b, p.Address...)
		b = append(b, "</address>\n"...)
		if p.ClientCert {
			b = append(b, `    <client-certificate name="`...)
			b = append(b, name...)
			b = append(b, "-client-cert\"/>\n"...)
		}
		if p.ServerCert {
			b = append(b, `    <server-certificate name="`...)
			b = append(b, name...)
			b = append(b, "-server-cert\"/>\n"...)
		}
		b = append(b, `    <signature-certificate name="`...)
		b = append(b, name...)
		b = append(b, "-sig-cert\"/>\n"...)
		for _, ch := range p.Channels {
			b = append(b, `    <delivery-channel name="`...)
			b = append(b, ch.Name...)
			b = append(b, `" document-exchange-name="`...)
			b = append(b, ch.Exchange...)
			b = append(b, `" transport-name="`...)
			b = append(b, ch.Transport...)
			b = append(b, `" nonrepudiation-of-origin="`...)
			b = append(b, ch.NonrepOrigin...)
			b = append(b, "\"/>\n    <document-exchange name=\""...)
			b = append(b, ch.Exchange...)
			b = append(b, `" business-protocol-name="`...)
			b = append(b, ch.Protocol...)
			b = append(b, `" protocol-version="`...)
			b = append(b, ch.Version...)
			b = append(b, `"><`...)
			b = append(b, ch.Protocol...)
			b = append(b, `-binding signature-certificate-name="`...)
			b = append(b, name...)
			b = append(b, `-sig-cert"`...)
			if ch.Protocol == "ebXML" {
				b = append(b, ` delivery-semantics="`...)
				b = append(b, ch.Semantics...)
				b = append(b, '"')
				if ch.TTL > 0 {
					b = append(b, ` ttl="`...)
					b = strconv.AppendInt(b, int64(ch.TTL), 10)
					b = append(b, '"')
				}
			}
			b = append(b, "/></document-exchange>\n    <transport name=\""...)
			b = append(b, ch.Transport...)
			b = append(b, `" protocol="`...)
			b = append(b, ch.TransportProto...)
			b = append(b, `" protocol-version="1.1"><endpoint uri="`...)
			b = append(b, ch.Endpoint...)
			b = append(b, "\"/></transport>\n"...)
		}
		b = append(b, "  </trading-partner>\n"...)
		tp.Partners = append(tp.Partners, p)
	}
	for i := 0; i < partners/2; i++ {
		b = append(b, `  <collaboration-agreement name="agreement-`...)
		b = append(b, pad4(i)...)
		b = append(b, `"><party trading-partner-name="partner-`...)
		b = append(b, pad4(rng.Intn(partners))...)
		b = append(b, `"/><party trading-partner-name="partner-`...)
		b = append(b, pad4(rng.Intn(partners))...)
		b = append(b, "\"/></collaboration-agreement>\n"...)
	}
	tp.XML = append(b, "</wlc>\n"...)
	return tp
}

func pad4(i int) string {
	s := strconv.Itoa(i)
	for len(s) < 4 {
		s = "0" + s
	}
	return s
}

// appendText appends s with the XML text escapes.
func appendText(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// stratifiedLogUniform returns n values log-uniform on [lo, hi], the
// middles of n equal-probability strata, in random order: every seed has the
// same sizes, so runs with different seeds do the same amount of work while
// their contents differ. (A random draw within each stratum moved the
// median message size, and with it the median latency, from seed to seed.)
func stratifiedLogUniform(rng *rand.Rand, n int, lo, hi float64) []int {
	out := make([]int, n)
	ratio := math.Log(hi / lo)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		out[i] = int(lo * math.Exp(u*ratio))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// opRand returns the generator for operation i of a stream: each operation
// is a pure function of (seed, stream, i), so a client's sequence is fixed
// by the seed however long the run lasts.
func opRand(seed int64, stream, i int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)*0xBF58476D1CE4E5B9 ^ uint64(i)*0x94D049BB133111EB
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}
