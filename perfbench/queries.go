package main

import "strconv"

// Query texts. Every text here has a reference answer in oracle.go.

// q1Text is the paper query Q1 with the seller inlined (stream-mode POST
// /query bodies carry no variables; five sellers keep the plan cache warm).
func q1Text(seller int) string {
	return `for $line in /Order/OrderLine where $line/SellersID eq "` + strconv.Itoa(seller) +
		`" return <lineItem>{string($line/Item/ID)}</lineItem>`
}

// ingestBibText is store-required (order by) and runs over a projected lazy
// parse of the message.
const ingestBibText = `for $b in /bib/book where $b/price > 60 order by $b/title return <r>{$b/title/text()}</r>`

// Catalog templates: they take external variables, so repeated requests hit
// the plan cache.
const (
	tmplQ1 = `declare variable $seller external;
for $line in /Order/OrderLine
where $line/SellersID eq $seller
return <lineItem>{string($line/Item/ID)}</lineItem>`

	tmplAgg = `declare variable $seller external;
<sum seller="{$seller}">{sum(for $q in /Order/OrderLine[SellersID eq $seller]/Item/Quantity return xs:integer($q))}</sum>`

	tmplChain = `count(//a//b//c)`

	tmplBranch = `count(//a[b]//d)`

	tmplBib = `declare variable $min external;
for $b in /bib/book
where $b/price > $min
order by $b/title, $b/@year
return <book year="{$b/@year}">{$b/title/text()}</book>`

	// tmplTP is the paper's trading-partner customer transformation, adapted
	// to run over the context document and to select one partner type.
	tmplTP = `declare variable $type external;
for $tp in /wlc/trading-partner[@type eq $type]
return
  <trading-partner
      name="{$tp/@name}"
      business-id="{$tp/party-identifier/@business-id}"
      type="{$tp/@type}"
      email="{$tp/@email}">
    { for $tp-ad in $tp/address return $tp-ad }
    { for $client-cert in $tp/client-certificate
      return <client-certificate name="{$client-cert/@name}"/> }
    { for $server-cert in $tp/server-certificate
      return <server-certificate name="{$server-cert/@name}"/> }
    { for $eb-dc in $tp/delivery-channel,
          $eb-de in $tp/document-exchange,
          $eb-tp in $tp/transport
      where $eb-dc/@document-exchange-name eq $eb-de/@name
        and $eb-dc/@transport-name eq $eb-tp/@name
        and $eb-de/@business-protocol-name eq "ebXML"
      return
        <ebxml-binding
            name="{$eb-dc/@name}"
            business-protocol-version="{$eb-de/@protocol-version}"
            is-signature-required="{$eb-dc/@nonrepudiation-of-origin}"
            delivery-semantics="{$eb-de/ebXML-binding/@delivery-semantics}">
          { if (empty($eb-de/ebXML-binding/@ttl)) then ()
            else attribute persist-duration
              { concat(($eb-de/ebXML-binding/@ttl div 1000), " seconds") } }
          <transport
              protocol="{$eb-tp/@protocol}"
              protocol-version="{$eb-tp/@protocol-version}"
              endpoint="{$eb-tp/endpoint[1]/@uri}"/>
        </ebxml-binding> }
  </trading-partner>`
)

// Adhoc query families: literals inlined, plus a unique request id, so
// every text is a plan-cache miss.
func adhocHitsText(id, seller, minQty int) string {
	return `for $line in /Order/OrderLine where $line/SellersID eq "` + strconv.Itoa(seller) +
		`" and $line/Item/Quantity >= ` + strconv.Itoa(minQty) +
		` return <hit id="` + strconv.Itoa(id) + `" n="{$line/@n}"/>`
}

func adhocCountText(id, seller int) string {
	return `<adhoc id="` + strconv.Itoa(id) + `">{count(/Order/OrderLine[SellersID eq "` + strconv.Itoa(seller) + `"])}</adhoc>`
}

func adhocBooksText(id, minPrice int) string {
	return `<adhoc id="` + strconv.Itoa(id) + `">{for $b in /bib/book where $b/price > ` + strconv.Itoa(minPrice) +
		` return <y>{string($b/@year)}</y>}</adhoc>`
}

// Fanout subscriptions.
func filterText(seller, minQty int) string {
	return `for $l in /Order/OrderLine where $l/SellersID eq "` + strconv.Itoa(seller) +
		`" and $l/Item/Quantity >= ` + strconv.Itoa(minQty) +
		` return <m n="{$l/@n}">{string($l/Item/ID)}</m>`
}

const (
	noteText  = `/Order/OrderLine/Note`
	countText = `count(/Order/OrderLine)`
	sumText   = `sum(for $q in /Order/OrderLine/Item/Quantity return xs:integer($q))`
)
