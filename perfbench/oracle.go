package main

import (
	"sort"
	"strconv"
	"strings"
)

// Reference answers, computed from the generators' records alone. Each
// function mirrors one query text in queries.go and returns the exact bytes
// the XQuery serializer must produce for it.

// refLineItems answers the paper query Q1 for one seller.
func refLineItems(lines []OrderLine, seller int) string {
	var b strings.Builder
	for _, l := range lines {
		if l.Seller == seller {
			b.WriteString("<lineItem>")
			b.WriteString(l.ID)
			b.WriteString("</lineItem>")
		}
	}
	return b.String()
}

// refSellerSum answers the agg template.
func refSellerSum(lines []OrderLine, seller int) string {
	sum := 0
	for _, l := range lines {
		if l.Seller == seller {
			sum += l.Qty
		}
	}
	return `<sum seller="` + strconv.Itoa(seller) + `">` + strconv.Itoa(sum) + "</sum>"
}

// refFilter answers a fanout filter subscription: one <m> per line of the
// seller with at least minQty items, complete at the line's </OrderLine>.
func refFilter(o Orders, seller, minQty int) []refItem {
	var out []refItem
	for i, l := range o.Lines {
		if l.Seller == seller && l.Qty >= minQty {
			out = append(out, refItem{end: o.CloseEnd[i], xml: `<m n="` + strconv.Itoa(l.N) + `">` + l.ID + "</m>"})
		}
	}
	return out
}

// refNotes answers the fully-streamable /Order/OrderLine/Note path: each
// result is complete at its </Note>.
func refNotes(o Orders) []refItem {
	out := make([]refItem, len(o.Lines))
	for i, l := range o.Lines {
		out[i] = refItem{end: o.NoteEnd[i], xml: "<Note>line " + strconv.Itoa(l.N) + " dock " + strconv.Itoa(l.Dock) + "</Note>"}
	}
	return out
}

// refItem is one expected streamed result and the byte offset just past the
// closing tag that completes it (-1: the end of the feed).
type refItem struct {
	end int
	xml string
}

// joinItems concatenates streamed results into one serialized sequence.
func joinItems(items []refItem) string {
	var b strings.Builder
	for _, it := range items {
		b.WriteString(it.xml)
	}
	return b.String()
}

func refCount(lines []OrderLine) string { return strconv.Itoa(len(lines)) }

func refQtySum(lines []OrderLine) string {
	sum := 0
	for _, l := range lines {
		sum += l.Qty
	}
	return strconv.Itoa(sum)
}

// refAdhocHits answers the adhoc "hits" family.
func refAdhocHits(lines []OrderLine, id, seller, minQty int) string {
	var b strings.Builder
	for _, l := range lines {
		if l.Seller == seller && l.Qty >= minQty {
			b.WriteString(`<hit id="` + strconv.Itoa(id) + `" n="` + strconv.Itoa(l.N) + `"/>`)
		}
	}
	return b.String()
}

// refAdhocCount answers the adhoc "count" family.
func refAdhocCount(lines []OrderLine, id, seller int) string {
	n := 0
	for _, l := range lines {
		if l.Seller == seller {
			n++
		}
	}
	return `<adhoc id="` + strconv.Itoa(id) + `">` + strconv.Itoa(n) + "</adhoc>"
}

// refAdhocBooks answers the adhoc "books" family: books above a price, in
// document order.
func refAdhocBooks(books []Book, id, minPrice int) string {
	var b strings.Builder
	b.WriteString(`<adhoc id="` + strconv.Itoa(id) + `">`)
	for _, bk := range books {
		if bk.Cents > minPrice*100 {
			b.WriteString(`<y>` + strconv.Itoa(bk.Year) + `</y>`)
		}
	}
	b.WriteString("</adhoc>")
	return b.String()
}

// refIngestBib answers the ingest Bib query: titles of books over 60, in
// title order (ties print identically, so sort stability is moot).
func refIngestBib(books []Book) string {
	var titles []string
	for _, bk := range books {
		if bk.Cents > 6000 {
			titles = append(titles, bk.Title)
		}
	}
	sort.Strings(titles)
	var b strings.Builder
	for _, t := range titles {
		b.WriteString("<r>" + t + "</r>")
	}
	return b.String()
}

// refBibTemplate answers the catalog bib template: books over min, ordered
// by title then year.
func refBibTemplate(books []Book, min int) string {
	var sel []Book
	for _, bk := range books {
		if bk.Cents > min*100 {
			sel = append(sel, bk)
		}
	}
	sort.SliceStable(sel, func(i, j int) bool {
		if sel[i].Title != sel[j].Title {
			return sel[i].Title < sel[j].Title
		}
		return sel[i].Year < sel[j].Year
	})
	var b strings.Builder
	for _, bk := range sel {
		b.WriteString(`<book year="` + strconv.Itoa(bk.Year) + `">` + bk.Title + "</book>")
	}
	return b.String()
}

// refTP answers the trading-partner customer transformation for one partner
// type.
func refTP(partners []Partner, typ string) string {
	var b strings.Builder
	for _, p := range partners {
		if p.Type != typ {
			continue
		}
		b.WriteString(`<trading-partner name="` + p.Name + `" business-id="` + p.BusinessID +
			`" type="` + p.Type + `" email="` + p.Email + `">`)
		b.WriteString("<address>" + p.Address + "</address>")
		if p.ClientCert {
			b.WriteString(`<client-certificate name="` + p.Name + `-client-cert"/>`)
		}
		if p.ServerCert {
			b.WriteString(`<server-certificate name="` + p.Name + `-server-cert"/>`)
		}
		for _, ch := range p.Channels {
			if ch.Protocol != "ebXML" {
				continue
			}
			b.WriteString(`<ebxml-binding name="` + ch.Name + `" business-protocol-version="` + ch.Version +
				`" is-signature-required="` + ch.NonrepOrigin + `" delivery-semantics="` + ch.Semantics + `"`)
			if ch.TTL > 0 {
				b.WriteString(` persist-duration="` + strconv.Itoa(ch.TTL/1000) + ` seconds"`)
			}
			b.WriteString(`><transport protocol="` + ch.TransportProto + `" protocol-version="1.1" endpoint="` +
				ch.Endpoint + `"/></ebxml-binding>`)
		}
		b.WriteString("</trading-partner>")
	}
	return b.String()
}

// deepCounts walks the generated tree once and answers the two catalog
// structural templates: count(//a//b//c), count(//a[b]//d), and the number
// of (a, b, c) embeddings of the a//b//c twig.
func deepCounts(nodes []DeepNode) (chain, branch, chainEmbeddings int64) {
	n := len(nodes)
	hasBChild := make([]bool, n)
	for _, x := range nodes {
		if x.Name == 'b' && x.Parent >= 0 {
			hasBChild[x.Parent] = true
		}
	}
	// Per node, over its strict ancestors: number of a's, number of (a, b)
	// ancestor pairs, and whether some a ancestor has a b child.
	as := make([]int64, n)
	abs := make([]int64, n)
	flagged := make([]bool, n)
	for i, x := range nodes {
		if p := x.Parent; p >= 0 {
			pn := nodes[p]
			as[i] = as[p]
			abs[i] = abs[p]
			flagged[i] = flagged[p]
			switch pn.Name {
			case 'a':
				as[i]++
				if hasBChild[p] {
					flagged[i] = true
				}
			case 'b':
				abs[i] += as[p]
			}
		}
		switch x.Name {
		case 'c':
			if abs[i] > 0 {
				chain++
				chainEmbeddings += abs[i]
			}
		case 'd':
			if flagged[i] {
				branch++
			}
		}
	}
	return chain, branch, chainEmbeddings
}
