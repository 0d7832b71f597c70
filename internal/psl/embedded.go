package psl

// embeddedList is a snapshot subset of the Public Suffix List covering
// every suffix the paper's analyses reference (Sections 4 and 5), the
// high-volume gTLDs/ccTLDs the synthetic Internet population uses, and
// representative wildcard/exception rules so the full matching semantics
// stay exercised. It stands in for the ~9k-rule full list, which Parse
// accepts unchanged.
const embeddedList = `
// ---- generic TLDs ----
com
net
org
edu
gov
mil
int
info
biz
name
mobi

// ---- new gTLDs referenced by the paper ----
tech
email
cloud
design
money
live
bid
review
site
online
xyz
top
club
shop
app
dev
page

// ---- ccTLDs ----
de
uk
co.uk
org.uk
gov.uk
ac.uk
au
com.au
net.au
org.au
gov.au
edu.au
us
fr
nl
it
es
se
no
fi
dk
pl
ru
ch
at
be
cz
hu
gr
pt
ro
br
com.br
net.br
ar
com.ar
mx
com.mx
jp
co.jp
ne.jp
or.jp
cn
com.cn
net.cn
in
co.in
kr
co.kr
tw
com.tw
hk
com.hk
sg
com.sg
my
com.my
id
co.id
th
co.th
vn
com.vn
tr
com.tr
za
co.za
nz
co.nz
ca
am
co.am
io
co
me
tv
cc
ws
la
sh
ac

// ---- free ccTLDs prominent in Table 3 phishing ----
ga
tk
ml
cf
gq

// ---- wildcard and exception rules (semantics coverage) ----
*.ck
!www.ck
*.bd
*.er
kobe.jp
*.kobe.jp
!city.kobe.jp

// ---- private-domain style rules ----
github.io
herokuapp.com
cloudfront.net
blogspot.com
appspot.com
`
