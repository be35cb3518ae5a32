package charts

import "repro/internal/chart"

// storeChart is the multi-service application scenario: three
// cooperating services (store-api, order-processor, customer-db) in one
// release, with the NetworkPolicy / ServiceAccount / RBAC surfaces a
// real cluster mixes across services and per-component credential
// Secrets, each labeled with its owning component. It widens the corpus
// the decoder-equivalence and chart tests render: one release whose
// objects span several services' shapes. The policy generated from it is
// per object, as for every chart; which component may mount which
// Secret is a cross-resource relationship KubeFence does not enforce.
//
// The chart is intentionally NOT part of Names(): the five-chart corpus
// is the paper's Fig. 9 evaluation set and the robustness and learning
// matrices' pinned scenario counts depend on it.
func storeChart() chart.Fileset {
	return chart.Fileset{
		"Chart.yaml": `
name: store
version: 1.2.0
appVersion: "2.7.1"
description: Multi-service storefront (API, order processor, customer DB) packaged as one release
`,
		"values.yaml": `
api:
  replicaCount: 2
  image:
    registry: docker.io
    repository: example/store-api
    tag: "2.7.1"
    # IfNotPresent or Always
    pullPolicy: IfNotPresent
  containerPort: 8080
  resources:
    limits:
      cpu: 250m
      memory: 256Mi
    requests:
      cpu: 100m
      memory: 128Mi
processor:
  replicaCount: 1
  image:
    registry: docker.io
    repository: example/order-processor
    tag: "2.7.1"
    # IfNotPresent or Always
    pullPolicy: IfNotPresent
  containerPort: 9090
  resources:
    limits:
      cpu: 200m
      memory: 192Mi
    requests:
      cpu: 50m
      memory: 96Mi
db:
  replicas: 1
  image:
    registry: docker.io
    repository: example/customer-db
    tag: "16.2.0"
    # IfNotPresent or Always
    pullPolicy: IfNotPresent
  containerPort: 5432
  storage: 8Gi
  resources:
    limits:
      cpu: 500m
      memory: 512Mi
    requests:
      cpu: 250m
      memory: 256Mi
service:
  # ClusterIP or NodePort
  type: ClusterIP
credentials:
  apiToken: changeme-api-token
  queuePassword: changeme-queue-pass
  dbPassword: changeme-db-pass
podSecurityContext:
  enabled: true
  fsGroup: 1001
containerSecurityContext:
  enabled: true
  runAsUser: 1001
  runAsNonRoot: true
  allowPrivilegeEscalation: false
  readOnlyRootFilesystem: true
serviceAccount:
  create: true
  automountServiceAccountToken: false
rbac:
  create: true
networkPolicy:
  enabled: true
commonAnnotations: {}
`,
		"templates/_helpers.tpl": commonHelpers("store"),
		"templates/api.yaml": `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ include "store.fullname" . }}-api
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: store-api
  {{- if .Values.commonAnnotations }}
  annotations:
    {{- toYaml .Values.commonAnnotations | nindent 4 }}
  {{- end }}
spec:
  replicas: {{ .Values.api.replicaCount }}
  selector:
    matchLabels:
      {{- include "store.matchLabels" . | nindent 6 }}
      app.kubernetes.io/component: store-api
  template:
    metadata:
      labels:
        {{- include "store.labels" . | nindent 8 }}
        app.kubernetes.io/component: store-api
    spec:
      serviceAccountName: {{ include "store.fullname" . }}-api
      automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
      {{- if .Values.podSecurityContext.enabled }}
      securityContext:
        fsGroup: {{ .Values.podSecurityContext.fsGroup }}
      {{- end }}
      containers:
        - name: store-api
          image: {{ printf "%s/%s:%s" .Values.api.image.registry .Values.api.image.repository .Values.api.image.tag }}
          imagePullPolicy: {{ .Values.api.image.pullPolicy | quote }}
          {{- if .Values.containerSecurityContext.enabled }}
          securityContext:
            runAsUser: {{ .Values.containerSecurityContext.runAsUser }}
            runAsNonRoot: {{ .Values.containerSecurityContext.runAsNonRoot }}
            allowPrivilegeEscalation: {{ .Values.containerSecurityContext.allowPrivilegeEscalation }}
            readOnlyRootFilesystem: {{ .Values.containerSecurityContext.readOnlyRootFilesystem }}
          {{- end }}
          ports:
            - name: http
              containerPort: {{ .Values.api.containerPort }}
          env:
            - name: API_TOKEN
              valueFrom:
                secretKeyRef:
                  name: {{ include "store.fullname" . }}-api-credentials
                  key: token
            - name: DB_HOST
              value: {{ include "store.fullname" . }}-db
          readinessProbe:
            httpGet:
              path: /healthz
              port: http
            initialDelaySeconds: 5
            periodSeconds: 10
          resources:
            {{- toYaml .Values.api.resources | nindent 12 }}
---
apiVersion: v1
kind: Service
metadata:
  name: {{ include "store.fullname" . }}-api
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: store-api
spec:
  type: {{ .Values.service.type }}
  ports:
    - name: http
      port: 80
      targetPort: http
      protocol: TCP
  selector:
    {{- include "store.matchLabels" . | nindent 4 }}
    app.kubernetes.io/component: store-api
`,
		"templates/processor.yaml": `
apiVersion: apps/v1
kind: Deployment
metadata:
  name: {{ include "store.fullname" . }}-processor
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
spec:
  replicas: {{ .Values.processor.replicaCount }}
  selector:
    matchLabels:
      {{- include "store.matchLabels" . | nindent 6 }}
      app.kubernetes.io/component: order-processor
  template:
    metadata:
      labels:
        {{- include "store.labels" . | nindent 8 }}
        app.kubernetes.io/component: order-processor
    spec:
      serviceAccountName: {{ include "store.fullname" . }}-processor
      automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
      {{- if .Values.podSecurityContext.enabled }}
      securityContext:
        fsGroup: {{ .Values.podSecurityContext.fsGroup }}
      {{- end }}
      containers:
        - name: order-processor
          image: {{ printf "%s/%s:%s" .Values.processor.image.registry .Values.processor.image.repository .Values.processor.image.tag }}
          imagePullPolicy: {{ .Values.processor.image.pullPolicy | quote }}
          {{- if .Values.containerSecurityContext.enabled }}
          securityContext:
            runAsUser: {{ .Values.containerSecurityContext.runAsUser }}
            runAsNonRoot: {{ .Values.containerSecurityContext.runAsNonRoot }}
            allowPrivilegeEscalation: {{ .Values.containerSecurityContext.allowPrivilegeEscalation }}
            readOnlyRootFilesystem: {{ .Values.containerSecurityContext.readOnlyRootFilesystem }}
          {{- end }}
          ports:
            - name: grpc
              containerPort: {{ .Values.processor.containerPort }}
          envFrom:
            - secretRef:
                name: {{ include "store.fullname" . }}-processor-credentials
          env:
            - name: API_URL
              value: http://{{ include "store.fullname" . }}-api
          resources:
            {{- toYaml .Values.processor.resources | nindent 12 }}
---
apiVersion: v1
kind: Service
metadata:
  name: {{ include "store.fullname" . }}-processor
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
spec:
  type: {{ .Values.service.type }}
  ports:
    - name: grpc
      port: {{ .Values.processor.containerPort }}
      targetPort: grpc
      protocol: TCP
  selector:
    {{- include "store.matchLabels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
`,
		"templates/db.yaml": `
apiVersion: apps/v1
kind: StatefulSet
metadata:
  name: {{ include "store.fullname" . }}-db
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
spec:
  serviceName: {{ include "store.fullname" . }}-db
  replicas: {{ .Values.db.replicas }}
  selector:
    matchLabels:
      {{- include "store.matchLabels" . | nindent 6 }}
      app.kubernetes.io/component: customer-db
  template:
    metadata:
      labels:
        {{- include "store.labels" . | nindent 8 }}
        app.kubernetes.io/component: customer-db
    spec:
      serviceAccountName: {{ include "store.fullname" . }}-db
      automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
      {{- if .Values.podSecurityContext.enabled }}
      securityContext:
        fsGroup: {{ .Values.podSecurityContext.fsGroup }}
      {{- end }}
      containers:
        - name: customer-db
          image: {{ printf "%s/%s:%s" .Values.db.image.registry .Values.db.image.repository .Values.db.image.tag }}
          imagePullPolicy: {{ .Values.db.image.pullPolicy | quote }}
          {{- if .Values.containerSecurityContext.enabled }}
          securityContext:
            runAsUser: {{ .Values.containerSecurityContext.runAsUser }}
            runAsNonRoot: {{ .Values.containerSecurityContext.runAsNonRoot }}
            allowPrivilegeEscalation: {{ .Values.containerSecurityContext.allowPrivilegeEscalation }}
            readOnlyRootFilesystem: {{ .Values.containerSecurityContext.readOnlyRootFilesystem }}
          {{- end }}
          ports:
            - name: pgsql
              containerPort: {{ .Values.db.containerPort }}
          volumeMounts:
            - name: credentials
              mountPath: /etc/store/credentials
              readOnly: true
            - name: data
              mountPath: /var/lib/store/data
          resources:
            {{- toYaml .Values.db.resources | nindent 12 }}
      volumes:
        - name: credentials
          secret:
            secretName: {{ include "store.fullname" . }}-db-credentials
  volumeClaimTemplates:
    - metadata:
        name: data
      spec:
        accessModes:
          - ReadWriteOnce
        resources:
          requests:
            storage: {{ .Values.db.storage }}
---
apiVersion: v1
kind: Service
metadata:
  name: {{ include "store.fullname" . }}-db
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
spec:
  type: ClusterIP
  clusterIP: None
  ports:
    - name: pgsql
      port: {{ .Values.db.containerPort }}
      targetPort: pgsql
      protocol: TCP
  selector:
    {{- include "store.matchLabels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
`,
		"templates/serviceaccounts.yaml": `
{{- if .Values.serviceAccount.create }}
apiVersion: v1
kind: ServiceAccount
metadata:
  name: {{ include "store.fullname" . }}-api
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: store-api
automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
---
apiVersion: v1
kind: ServiceAccount
metadata:
  name: {{ include "store.fullname" . }}-processor
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
---
apiVersion: v1
kind: ServiceAccount
metadata:
  name: {{ include "store.fullname" . }}-db
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
automountServiceAccountToken: {{ .Values.serviceAccount.automountServiceAccountToken }}
{{- end }}
`,
		"templates/secrets.yaml": `
apiVersion: v1
kind: Secret
metadata:
  name: {{ include "store.fullname" . }}-api-credentials
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: store-api
type: Opaque
stringData:
  token: {{ .Values.credentials.apiToken | quote }}
---
apiVersion: v1
kind: Secret
metadata:
  name: {{ include "store.fullname" . }}-processor-credentials
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
type: Opaque
stringData:
  QUEUE_PASSWORD: {{ .Values.credentials.queuePassword | quote }}
---
apiVersion: v1
kind: Secret
metadata:
  name: {{ include "store.fullname" . }}-db-credentials
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
type: Opaque
stringData:
  password: {{ .Values.credentials.dbPassword | quote }}
`,
		"templates/configmap.yaml": `
apiVersion: v1
kind: ConfigMap
metadata:
  name: {{ include "store.fullname" . }}-config
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
data:
  ORDER_QUEUE: orders
  DB_NAME: customers
  LOG_LEVEL: info
`,
		"templates/rbac.yaml": `
{{- if .Values.rbac.create }}
apiVersion: rbac.authorization.k8s.io/v1
kind: Role
metadata:
  name: {{ include "store.fullname" . }}-processor
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
rules:
  - apiGroups:
      - ""
    resources:
      - configmaps
    verbs:
      - get
      - list
      - watch
---
apiVersion: rbac.authorization.k8s.io/v1
kind: RoleBinding
metadata:
  name: {{ include "store.fullname" . }}-processor
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: order-processor
roleRef:
  apiGroup: rbac.authorization.k8s.io
  kind: Role
  name: {{ include "store.fullname" . }}-processor
subjects:
  - kind: ServiceAccount
    name: {{ include "store.fullname" . }}-processor
    namespace: {{ .Release.Namespace }}
{{- end }}
`,
		"templates/networkpolicy.yaml": `
{{- if .Values.networkPolicy.enabled }}
apiVersion: networking.k8s.io/v1
kind: NetworkPolicy
metadata:
  name: {{ include "store.fullname" . }}-db
  namespace: {{ .Release.Namespace }}
  labels:
    {{- include "store.labels" . | nindent 4 }}
    app.kubernetes.io/component: customer-db
spec:
  podSelector:
    matchLabels:
      {{- include "store.matchLabels" . | nindent 6 }}
      app.kubernetes.io/component: customer-db
  policyTypes:
    - Ingress
  ingress:
    - from:
        - podSelector:
            matchLabels:
              app.kubernetes.io/component: store-api
        - podSelector:
            matchLabels:
              app.kubernetes.io/component: order-processor
      ports:
        - port: {{ .Values.db.containerPort }}
{{- end }}
`,
	}
}
